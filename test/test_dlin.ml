(* The durable-linearizability checker itself: deterministic accept and
   reject cases over a register machine, counterexample dump format,
   synthetic soundness fuzzing (every history generated by a legal
   crash execution must be accepted), and a seeded probe that real PTM
   runs satisfy the oracle end to end. *)

module Config = Memsim.Config
module Engine = Crashtest.Engine
module Scenarios = Crashtest.Scenarios

(* ---------- a register machine spec ---------- *)

(* [regs] integer registers; an operation adds [delta] to one register
   and returns the register's new value.  Distinct registers commute
   (the response only reads the written register). *)

type rop = { tid : int; reg : int; delta : int }

let spec ~regs =
  {
    Dlin.init = Array.make regs 0;
    apply =
      (fun st o ->
        let st = Array.copy st in
        st.(o.reg) <- st.(o.reg) + o.delta;
        (st, st.(o.reg)));
    equal_state = ( = );
    hash_state = (fun st -> Array.fold_left (fun h v -> (h * 31) + v + 1) 17 st);
    equal_res = Int.equal;
    commutes = (fun a b -> a.reg <> b.reg);
    pp_op = (fun ppf o -> Format.fprintf ppf "t%d: r%d += %d" o.tid o.reg o.delta);
    pp_res = Format.pp_print_int;
    pp_state =
      (fun ppf st ->
        Format.fprintf ppf "[%s]"
          (String.concat ";" (Array.to_list (Array.map string_of_int st))));
  }

(* Record one completed op: invoke/return around nothing. *)
let completed h ~tid ~at op res =
  Dlin.History.invoke h ~tid ~at_ns:at op;
  Dlin.History.return h ~tid ~at_ns:(at +. 1.) res

let ok_exn = function
  | Ok (_ : Dlin.stats) -> ()
  | Error c -> Alcotest.fail ("expected acceptance, got: " ^ c.Dlin.reason)

let reject_exn = function
  | Ok (_ : Dlin.stats) -> Alcotest.fail "expected rejection, history was accepted"
  | Error (c : Dlin.counterexample) -> c

(* ---------- deterministic accepts ---------- *)

let test_empty_history () =
  let s = spec ~regs:2 in
  let h = Dlin.History.create ~threads:2 in
  ok_exn (Dlin.check s h ~recovered:[| 0; 0 |])

let test_sequential_accept () =
  let s = spec ~regs:2 in
  let h = Dlin.History.create ~threads:2 in
  completed h ~tid:0 ~at:0. { tid = 0; reg = 0; delta = 5 } 5;
  completed h ~tid:1 ~at:10. { tid = 1; reg = 0; delta = 3 } 8;
  completed h ~tid:0 ~at:20. { tid = 0; reg = 1; delta = 1 } 1;
  ok_exn (Dlin.check s h ~recovered:[| 8; 1 |])

let test_pending_both_ways () =
  (* t1's op never returned: the crash may or may not have made it
     durable, so both recovered states are legal. *)
  let s = spec ~regs:1 in
  let mk () =
    let h = Dlin.History.create ~threads:2 in
    completed h ~tid:0 ~at:0. { tid = 0; reg = 0; delta = 1 } 1;
    Dlin.History.invoke h ~tid:1 ~at_ns:5. { tid = 1; reg = 0; delta = 2 };
    h
  in
  ok_exn (Dlin.check s (mk ()) ~recovered:[| 1 |]);
  ok_exn (Dlin.check s (mk ()) ~recovered:[| 3 |]);
  Helpers.check_int "completed count" 1 (Dlin.History.completed (mk ()));
  Helpers.check_int "pending count" 1 (Dlin.History.pending (mk ()))

let test_concurrent_order_freedom () =
  (* Two overlapping increments on the same register: either
     linearization order must be admissible, picked by responses. *)
  let s = spec ~regs:1 in
  let h = Dlin.History.create ~threads:2 in
  Dlin.History.invoke h ~tid:0 ~at_ns:0. { tid = 0; reg = 0; delta = 1 };
  Dlin.History.invoke h ~tid:1 ~at_ns:0. { tid = 1; reg = 0; delta = 1 };
  (* t1 linearized first: its new-value response is 1, t0's is 2. *)
  Dlin.History.return h ~tid:1 ~at_ns:3. 1;
  Dlin.History.return h ~tid:0 ~at_ns:4. 2;
  ok_exn (Dlin.check s h ~recovered:[| 2 |])

(* ---------- deterministic rejects ---------- *)

let test_lost_committed_op () =
  let s = spec ~regs:1 in
  let h = Dlin.History.create ~threads:1 in
  completed h ~tid:0 ~at:0. { tid = 0; reg = 0; delta = 7 } 7;
  let c = reject_exn (Dlin.check s h ~recovered:[| 0 |]) in
  Helpers.check_bool "reason names linearization" true
    (String.length c.Dlin.reason > 0)

let test_real_time_violation () =
  (* t0's op returned before t1's was invoked, yet the responses claim
     t1 linearized first — no legal order exists. *)
  let s = spec ~regs:1 in
  let h = Dlin.History.create ~threads:2 in
  completed h ~tid:0 ~at:0. { tid = 0; reg = 0; delta = 1 } 2;
  completed h ~tid:1 ~at:10. { tid = 1; reg = 0; delta = 1 } 1;
  ignore (reject_exn (Dlin.check s h ~recovered:[| 2 |]) : Dlin.counterexample)

let test_torn_state () =
  let s = spec ~regs:1 in
  let h = Dlin.History.create ~threads:2 in
  completed h ~tid:0 ~at:0. { tid = 0; reg = 0; delta = 2 } 2;
  Dlin.History.invoke h ~tid:1 ~at_ns:5. { tid = 1; reg = 0; delta = 4 };
  (* Reachable values are 2 and 6; 5 is a torn write. *)
  ignore (reject_exn (Dlin.check s h ~recovered:[| 5 |]) : Dlin.counterexample)

let test_budget_is_distinct () =
  let s = spec ~regs:1 in
  let h = Dlin.History.create ~threads:2 in
  for i = 1 to 4 do
    completed h ~tid:0 ~at:(float_of_int (10 * i)) { tid = 0; reg = 0; delta = 1 } i
  done;
  let c = reject_exn (Dlin.check ~max_nodes:2 s h ~recovered:[| 4 |]) in
  Helpers.check_bool "budget failure says inconclusive" true
    (String.length c.Dlin.reason > 0
    &&
    let has_sub sub =
      let n = String.length sub and m = String.length c.Dlin.reason in
      let rec go i = i + n <= m && (String.sub c.Dlin.reason i n = sub || go (i + 1)) in
      go 0
    in
    has_sub "inconclusive")

let test_sequential_thread_enforced () =
  let h = Dlin.History.create ~threads:1 in
  Dlin.History.invoke h ~tid:0 ~at_ns:0. { tid = 0; reg = 0; delta = 1 };
  match Dlin.History.invoke h ~tid:0 ~at_ns:1. { tid = 0; reg = 0; delta = 2 } with
  | () -> Alcotest.fail "second invoke while pending must raise"
  | exception Invalid_argument _ -> ()

(* ---------- the counterexample dump ---------- *)

(* ---------- buffered durability mode ---------- *)

(* Two overlapping completed ops: any real-time-closed cut is a legal
   buffered recovery, including losing both — while strict mode still
   demands every completed op. *)
let test_buffered_accepts_cuts () =
  let s = spec ~regs:2 in
  let mk () =
    let h = Dlin.History.create ~threads:2 in
    Dlin.History.invoke h ~tid:0 ~at_ns:0. { tid = 0; reg = 0; delta = 5 };
    Dlin.History.invoke h ~tid:1 ~at_ns:1. { tid = 1; reg = 1; delta = 7 };
    Dlin.History.return h ~tid:0 ~at_ns:10. 5;
    Dlin.History.return h ~tid:1 ~at_ns:11. 7;
    h
  in
  List.iter
    (fun recovered -> ok_exn (Dlin.check ~durability:`Buffered s (mk ()) ~recovered))
    [ [| 0; 0 |]; [| 5; 0 |]; [| 0; 7 |]; [| 5; 7 |] ];
  ignore (reject_exn (Dlin.check s (mk ()) ~recovered:[| 5; 0 |]) : Dlin.counterexample)

(* The cut must stay closed under real-time order: an op that returned
   before another was invoked cannot be lost while the later survives. *)
let test_buffered_respects_real_time () =
  let s = spec ~regs:2 in
  let h = Dlin.History.create ~threads:2 in
  completed h ~tid:0 ~at:0. { tid = 0; reg = 0; delta = 5 } 5;
  completed h ~tid:1 ~at:5. { tid = 1; reg = 1; delta = 7 } 7;
  ok_exn (Dlin.check ~durability:`Buffered s h ~recovered:[| 5; 0 |]);
  let c = reject_exn (Dlin.check ~durability:`Buffered s h ~recovered:[| 0; 7 |]) in
  Helpers.check_bool "reason names the buffered criterion" true
    (String.length c.Dlin.reason > 0)

(* Operations inside the cut still replay their recorded responses:
   a state only reachable through a lying response is rejected. *)
let test_buffered_checks_responses () =
  let s = spec ~regs:1 in
  let h = Dlin.History.create ~threads:1 in
  completed h ~tid:0 ~at:0. { tid = 0; reg = 0; delta = 5 } 5;
  completed h ~tid:0 ~at:2. { tid = 0; reg = 0; delta = 5 } 11 (* really 10 *);
  ok_exn (Dlin.check ~durability:`Buffered s h ~recovered:[| 5 |]);
  ignore
    (reject_exn (Dlin.check ~durability:`Buffered s h ~recovered:[| 10 |])
      : Dlin.counterexample)

(* A state no cut reaches is still torn under the weaker criterion. *)
let test_buffered_rejects_unreachable () =
  let s = spec ~regs:2 in
  let h = Dlin.History.create ~threads:1 in
  completed h ~tid:0 ~at:0. { tid = 0; reg = 0; delta = 5 } 5;
  ignore
    (reject_exn (Dlin.check ~durability:`Buffered s h ~recovered:[| 3; 0 |])
      : Dlin.counterexample)

let test_dump_format () =
  let s = spec ~regs:1 in
  let h = Dlin.History.create ~threads:2 in
  completed h ~tid:0 ~at:0. { tid = 0; reg = 0; delta = 7 } 7;
  Dlin.History.invoke h ~tid:1 ~at_ns:3. { tid = 1; reg = 0; delta = 1 };
  let c = reject_exn (Dlin.check s h ~recovered:[| 1 |]) in
  let lines = String.split_on_char '\n' (String.trim c.Dlin.jsonl) in
  Helpers.check_int "meta + 2 ops + recovered state" 4 (List.length lines);
  let has_prefix p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
  Helpers.check_bool "first line is the dlin meta record" true
    (has_prefix {|{"kind": "dlin"|} (List.nth lines 0));
  Helpers.check_bool "op lines" true
    (has_prefix {|{"kind": "op"|} (List.nth lines 1)
    && has_prefix {|{"kind": "op"|} (List.nth lines 2));
  Helpers.check_bool "last line is the recovered state" true
    (has_prefix {|{"kind": "recovered"|} (List.nth lines 3));
  (* Every line must be self-contained JSON-ish: balanced braces. *)
  List.iter
    (fun l ->
      Helpers.check_bool "line starts { and ends }" true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines

(* ---------- soundness fuzz: legal crash executions are accepted ---------- *)

(* Generate a random legal execution directly from the durable
   semantics: pick per-thread op lists, process a random interleaving
   against a shadow state (each processed op is linearized durably),
   cut at a random crash index, leave each thread's next unprocessed op
   invoked-but-pending, and sometimes erase the return of a thread's
   last processed op (the committed-before-return window).  The checker
   must accept the resulting history against the shadow state. *)

type fuzz_case = {
  regs : int;
  per_thread : rop list array;
  order : int list;  (** thread id per processing step, a legal interleaving *)
  cut : int;  (** processing steps that became durable before the crash *)
  unreturn : bool array;  (** erase the final return of fully-processed threads *)
}

let fuzz_gen =
  let open QCheck2.Gen in
  let* threads = int_range 1 3 in
  let* regs = int_range 1 3 in
  let* counts = array_size (return threads) (int_range 0 4) in
  let* per_thread =
    let gen_ops tid n =
      list_size (return n)
        (let* reg = int_range 0 (regs - 1) in
         let* delta = int_range 1 4 in
         return { tid; reg; delta })
    in
    let rec build tid acc =
      if tid >= threads then return (Array.of_list (List.rev acc))
      else
        let* ops = gen_ops tid counts.(tid) in
        build (tid + 1) (ops :: acc)
    in
    build 0 []
  in
  let total = Array.fold_left (fun a l -> a + List.length l) 0 per_thread in
  let* order =
    (* A uniform-ish legal interleaving: repeatedly pick among threads
       with remaining ops. *)
    let remaining = Array.map List.length per_thread in
    let rec go k acc =
      if k = 0 then return (List.rev acc)
      else
        let alive = ref [] in
        Array.iteri (fun t r -> if r > 0 then alive := t :: !alive) remaining;
        let* pick = oneofl !alive in
        remaining.(pick) <- remaining.(pick) - 1;
        go (k - 1) (pick :: acc)
    in
    go total []
  in
  let* cut = int_range 0 total in
  let* unreturn = array_size (return threads) bool in
  return { regs; per_thread; order; cut; unreturn }

let fuzz_prop { regs; per_thread; order; cut; unreturn } =
  let threads = Array.length per_thread in
  let s = spec ~regs in
  let h = Dlin.History.create ~threads in
  let shadow = ref s.Dlin.init in
  let queues = Array.map (fun l -> ref l) per_thread in
  let clock = ref 0. in
  let ready = Array.make threads 0. in
  let last_processed = Array.make threads false in
  List.iteri
    (fun step tid ->
      match !(queues.(tid)) with
      | [] -> assert false
      | op :: rest ->
        queues.(tid) := rest;
        (* Ops at or past the cut never execute; the per-thread pending
           invocations are reconstructed below. *)
        if step < cut then begin
          (* Durable: invoke at the thread's ready time (so ops of
             different threads overlap), linearize, return. *)
          Dlin.History.invoke h ~tid ~at_ns:ready.(tid) op;
          let st', res = s.Dlin.apply !shadow op in
          shadow := st';
          clock := !clock +. 1.;
          Dlin.History.return h ~tid ~at_ns:!clock res;
          ready.(tid) <- !clock;
          last_processed.(tid) <- rest = []
        end)
    order;
  (* Each thread's next unexecuted op (if any) was invoked and is
     pending at the crash. *)
  let executed = Array.make threads 0 in
  List.iteri (fun step tid -> if step < cut then executed.(tid) <- executed.(tid) + 1) order;
  Array.iteri
    (fun tid ops ->
      if executed.(tid) < List.length ops then
        Dlin.History.invoke h ~tid ~at_ns:ready.(tid) (List.nth ops executed.(tid)))
    per_thread;
  (* Committed-but-never-returned window: only legal for a thread whose
     history ends in a returned op (no pending next op). *)
  (* Not directly expressible through the public API once returns are
     recorded, so it is exercised by the pending-both-ways unit test
     instead; [unreturn] still varies the generator's seed space. *)
  ignore (unreturn : bool array);
  ignore (last_processed : bool array);
  match Dlin.check s h ~recovered:!shadow with
  | Ok (_ : Dlin.stats) -> true
  | Error c ->
    QCheck2.Test.fail_reportf "sound history rejected: %s@.%s" c.Dlin.reason c.Dlin.jsonl

(* Unsound twist: corrupt one register with a value outside every
   subset's reach; the checker must reject. *)
let fuzz_neg_prop { regs; per_thread; order; cut; unreturn = _ } =
  let threads = Array.length per_thread in
  let total = List.length order in
  if total = 0 then true
  else begin
    let s = spec ~regs in
    let h = Dlin.History.create ~threads in
    let shadow = ref s.Dlin.init in
    let queues = Array.map (fun l -> ref l) per_thread in
    let clock = ref 0. in
    let ready = Array.make threads 0. in
    List.iteri
      (fun step tid ->
        match !(queues.(tid)) with
        | [] -> assert false
        | op :: rest ->
          queues.(tid) := rest;
          if step < cut then begin
            Dlin.History.invoke h ~tid ~at_ns:ready.(tid) op;
            let st', res = s.Dlin.apply !shadow op in
            shadow := st';
            clock := !clock +. 1.;
            Dlin.History.return h ~tid ~at_ns:!clock res;
            ready.(tid) <- !clock
          end)
      order;
    (* A register value bigger than the sum of every delta is reachable
       by no linearization of any subset. *)
    let poisoned = Array.copy !shadow in
    let bound =
      Array.fold_left
        (fun acc ops -> List.fold_left (fun a o -> a + o.delta) acc ops)
        1 per_thread
    in
    poisoned.(0) <- poisoned.(0) + bound;
    match Dlin.check s h ~recovered:poisoned with
    | Ok _ -> QCheck2.Test.fail_reportf "poisoned recovered state accepted"
    | Error (_ : Dlin.counterexample) -> true
  end

(* ---------- the real thing: PTM crash points satisfy the oracle ---------- *)

(* A seeded sprinkle of single crash points across scenarios, models
   and algorithms; [Engine.probe] runs the dlin oracle on the
   recovered state.  The broad sweeps live in test_crashtest and
   @crashtest; this is the quick soundness probe for the checker
   itself. *)
let test_ptm_points () =
  let cells =
    [
      (Scenarios.bank (), Config.optane_adr, Pstm.Ptm.Redo, 1000);
      (Scenarios.counters (), Config.optane_adr, Pstm.Ptm.Undo, 900);
      (Scenarios.kv_incr (), Config.transient_cache, Pstm.Ptm.Redo, 1200);
      (Scenarios.bank (), Config.htm_commit, Pstm.Ptm.Htm, 800);
    ]
  in
  List.iter
    (fun (scenario, model, algorithm, t0) ->
      List.iter
        (fun k ->
          let crash_at = t0 * k in
          match
            Engine.probe ~seed:(3 + k) ~crash_at (Engine.ptm_cell ~model ~algorithm scenario)
          with
          | Ok () -> ()
          | Error e ->
            Alcotest.fail
              (Printf.sprintf "%s/%s/%s crash_at=%d: %s" scenario.Engine.name
                 model.Config.model_name
                 (Pstm.Ptm.algorithm_name algorithm)
                 crash_at e))
        [ 1; 2 ])
    cells

let suite =
  [
    Alcotest.test_case "empty history accepts initial state" `Quick test_empty_history;
    Alcotest.test_case "sequential history accepts its replay" `Quick test_sequential_accept;
    Alcotest.test_case "pending op may or may not be durable" `Quick test_pending_both_ways;
    Alcotest.test_case "overlapping ops linearize by response" `Quick
      test_concurrent_order_freedom;
    Alcotest.test_case "lost committed op is rejected" `Quick test_lost_committed_op;
    Alcotest.test_case "real-time order violation is rejected" `Quick
      test_real_time_violation;
    Alcotest.test_case "torn state is rejected" `Quick test_torn_state;
    Alcotest.test_case "budget exhaustion is inconclusive, not a pass" `Quick
      test_budget_is_distinct;
    Alcotest.test_case "threads are sequential" `Quick test_sequential_thread_enforced;
    Alcotest.test_case "buffered mode accepts any real-time-closed cut" `Quick
      test_buffered_accepts_cuts;
    Alcotest.test_case "buffered mode respects real-time order" `Quick
      test_buffered_respects_real_time;
    Alcotest.test_case "buffered mode checks in-cut responses" `Quick
      test_buffered_checks_responses;
    Alcotest.test_case "buffered mode rejects unreachable states" `Quick
      test_buffered_rejects_unreachable;
    Alcotest.test_case "counterexample dump is replayable jsonl" `Quick test_dump_format;
    Helpers.qtest ~count:300 "fuzz: legal crash executions are accepted" fuzz_gen fuzz_prop;
    Helpers.qtest ~count:150 "fuzz: unreachable recovered states are rejected" fuzz_gen
      fuzz_neg_prop;
    Alcotest.test_case "PTM crash points satisfy the oracle" `Slow test_ptm_points;
  ]
