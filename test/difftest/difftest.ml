(* Differential stress testing: one randomized transaction trace,
   executed under every (algorithm, durability model, flush discipline)
   configuration, must be explained by one sequential specification.

   One transaction is one Dlin operation whose response is what its
   reads returned.  The spec's [apply] is the only interpreter: the
   generator asks it for the state inside the transaction so far and
   picks a valid next action (writes target live blocks, allocs target
   empty slots), and [Dlin.check] judges every configuration's
   one-thread history and final heap against it.  Traces are
   single-threaded: with no conflicts, every configuration executes the
   identical sequence of transactional operations, and any divergence
   is a logging/write-back bug, not a scheduling artifact. *)

module Rng = Repro_util.Rng
module Config = Memsim.Config
module Sim = Memsim.Sim
module Ptm = Pstm.Ptm

type action =
  | Alloc of { slot : int; words : int }
  | Free of { slot : int }
  | Write of { slot : int; off : int; value : int }
  | Read of { slot : int; off : int }
  | Abort

type txn = action list
type trace = { slots : int; txns : txn list }
type state = int array option array
type response = Values of int list | Aborted

exception User_abort

let ints l = String.concat "," (List.map string_of_int l)

let pp_action ppf = function
  | Alloc { slot; words } -> Format.fprintf ppf "alloc[%d]<-%dw" slot words
  | Free { slot } -> Format.fprintf ppf "free[%d]" slot
  | Write { slot; off; value } -> Format.fprintf ppf "write[%d+%d]<-%d" slot off value
  | Read { slot; off } -> Format.fprintf ppf "read[%d+%d]" slot off
  | Abort -> Format.fprintf ppf "abort"

let pp_state ppf (st : state) =
  Array.iteri
    (fun i p ->
      Option.iter (fun payload -> Format.fprintf ppf "[%d]=(%s) " i (ints (Array.to_list payload))) p)
    st

(* ---------- the specification ---------- *)

let step (st : state) reads = function
  | Alloc { slot; words } -> st.(slot) <- Some (Array.make words 0)
  | Free { slot } -> st.(slot) <- None
  | Write { slot; off; value } -> (Option.get st.(slot)).(off) <- value
  | Read { slot; off } -> reads := (Option.get st.(slot)).(off) :: !reads
  | Abort -> raise User_abort

let spec ~slots =
  {
    Dlin.init = Array.make slots None;
    apply =
      (fun st txn ->
        (* Deep copy: an aborted transaction's writes must not leak into
           the state through shared payload arrays. *)
        let st' = Array.map (Option.map Array.copy) st in
        let reads = ref [] in
        match List.iter (step st' reads) txn with
        | () -> (st', Values (List.rev !reads))
        | exception User_abort -> (st, Aborted));
    equal_state = ( = );
    hash_state = Hashtbl.hash;
    equal_res = ( = );
    (* One thread: the checker never asks. *)
    commutes = (fun _ _ -> false);
    pp_op = Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ') pp_action;
    pp_res =
      (fun ppf -> function
        | Values vs -> Format.fprintf ppf "read (%s)" (ints vs)
        | Aborted -> Format.fprintf ppf "aborted");
    pp_state;
  }

(* ---------- generation ---------- *)

let gen_trace ?(slots = 8) ?(txns = 40) seed =
  let rng = Rng.create seed in
  let spec = spec ~slots in
  let indices = List.init slots Fun.id in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  (* A valid next action in [st], the state inside the transaction so
     far. *)
  let next_action st =
    let live = List.filter (fun i -> st.(i) <> None) indices in
    let empty = List.filter (fun i -> st.(i) = None) indices in
    if empty <> [] && (live = [] || Rng.chance rng 0.35) then
      let slot = pick empty in
      Alloc { slot; words = 1 + Rng.int rng 6 }
    else
      let slot = pick live in
      let words = Array.length (Option.get st.(slot)) in
      match Rng.int rng 10 with
      | 0 | 1 -> Free { slot }
      | 2 | 3 -> Read { slot; off = Rng.int rng words }
      | _ ->
        let off = Rng.int rng words in
        Write { slot; off; value = 1 + Rng.int rng 1_000_000 }
  in
  let gen_txn st =
    let rec go acts n =
      if n = 0 then List.rev acts
      else go (next_action (fst (spec.apply st (List.rev acts))) :: acts) (n - 1)
    in
    let acts = go [] (1 + Rng.int rng 6) in
    if Rng.chance rng 0.2 then acts @ [ Abort ] else acts
  in
  let rec loop st n acc =
    if n = 0 then List.rev acc
    else
      let txn = gen_txn st in
      loop (fst (spec.apply st txn)) (n - 1) (txn :: acc)
  in
  { slots; txns = loop spec.init txns [] }

(* ---------- execution ---------- *)

type outcome = {
  history : (txn, response) Dlin.History.t;
  final : state;
  commits : int;
  aborts : int;
  sfences : int;
  clwbs : int;
}

(* Blocks carry their length in word 0 so the heap can be read back
   without consulting the trace; payloads start at word 1. *)
let execute ?(heap_words = 1 lsl 16) ~model ~algorithm ~coalesce trace =
  let cfg = Config.make ~heap_words model in
  Sim.with_ (Sim.create cfg) @@ fun sim ->
  let m = Sim.machine sim in
  let ptm = Ptm.create ~algorithm ~coalesce ~max_threads:1 ~log_words_per_thread:4096 m in
  let dir =
    Ptm.atomic ptm (fun tx ->
        let d = Ptm.alloc tx trace.slots in
        for i = 0 to trace.slots - 1 do
          Ptm.write tx (d + i) 0
        done;
        d)
  in
  Ptm.root_set ptm 0 dir;
  let step tx reads = function
    | Alloc { slot; words } ->
      let b = Ptm.alloc tx (words + 1) in
      Ptm.write tx b words;
      for j = 1 to words do
        Ptm.write tx (b + j) 0
      done;
      Ptm.write tx (dir + slot) b
    | Free { slot } ->
      let b = Ptm.read tx (dir + slot) in
      Ptm.free tx b;
      Ptm.write tx (dir + slot) 0
    | Write { slot; off; value } ->
      let b = Ptm.read tx (dir + slot) in
      Ptm.write tx (b + 1 + off) value
    | Read { slot; off } ->
      let b = Ptm.read tx (dir + slot) in
      reads := Ptm.read tx (b + 1 + off) :: !reads
    | Abort -> raise User_abort
  in
  let run txn () =
    match
      Ptm.atomic ptm (fun tx ->
          let reads = ref [] in
          List.iter (step tx reads) txn;
          List.rev !reads)
    with
    | values -> Values values
    | exception User_abort -> Aborted
  in
  let history = Dlin.History.create ~threads:1 in
  ignore
    (Sim.spawn sim (fun () ->
         List.iter
           (fun txn ->
             ignore (Dlin.History.run history ~tid:0 ~now:m.Machine.now_ns txn (run txn) : response))
           trace.txns)
      : int);
  Sim.run sim;
  let pstats = Ptm.Stats.get ptm in
  let stats = Sim.Stats.get sim in
  (* The heap readback runs untimed, after the stats snapshot, so it
     perturbs neither timing nor the fence economy being compared. *)
  let final =
    Array.init trace.slots (fun slot ->
        Ptm.atomic ptm (fun tx ->
            let b = Ptm.read tx (dir + slot) in
            if b = 0 then None
            else
              let words = Ptm.read tx b in
              Some (Array.init words (fun j -> Ptm.read tx (b + 1 + j)))))
  in
  {
    history;
    final;
    commits = pstats.Ptm.Stats.commits;
    aborts = pstats.Ptm.Stats.aborts;
    sfences = stats.Sim.Stats.sfences;
    clwbs = stats.Sim.Stats.clwbs;
  }

(* ---------- the configuration matrix ---------- *)

type config = { name : string; model : Config.model; algorithm : Ptm.algorithm; coalesce : bool }

(* MOD buffers writes volatile and publishes through a root swap;
   traces that update several directory slots in one transaction
   exercise its redo fallback, so its rows cover both paths. *)
let matrix =
  List.concat_map
    (fun algorithm ->
      List.concat_map
        (fun model ->
          if
            not
              (Ptm.runs_on algorithm ~needs_flush:(Config.needs_flush model)
                 ~durable_publish:model.Config.durable_publish)
          then []
          else
            List.map
              (fun coalesce ->
                {
                  name =
                    Printf.sprintf "%s/%s/%s" (Ptm.algorithm_name algorithm) model.Config.model_name
                      (if coalesce then "coalesced" else "naive");
                  model;
                  algorithm;
                  coalesce;
                })
              [ true; false ])
        Config.[ optane_adr; optane_eadr; transient_cache; htm_commit ])
    Ptm.algorithms

let check_seed ?slots ?txns seed =
  let trace = gen_trace ?slots ?txns seed in
  let spec = spec ~slots:trace.slots in
  let runs =
    List.map
      (fun c -> (c, execute ~model:c.model ~algorithm:c.algorithm ~coalesce:c.coalesce trace))
      matrix
  in
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun (c, o) ->
      match Dlin.check spec o.history ~recovered:o.final with
      | Ok (_ : Dlin.stats) -> ()
      | Error e -> err "seed %d: %s: %s; final heap %a" seed c.name e.Dlin.reason pp_state o.final)
    runs;
  (* Coalescing is a flush-traffic optimisation, never a semantics
     change: for each algorithm x model pair it must not add fences or
     write-backs over the naive discipline. *)
  List.iter
    (fun (c, co) ->
      List.iter
        (fun (n, no) ->
          if c.coalesce && (not n.coalesce) && n.algorithm = c.algorithm && n.model == c.model
          then begin
            if co.sfences > no.sfences then
              err "seed %d: %s issues %d fences, more than %s's %d" seed c.name co.sfences n.name
                no.sfences;
            if co.clwbs > no.clwbs then
              err "seed %d: %s issues %d clwbs, more than %s's %d" seed c.name co.clwbs n.name
                no.clwbs
          end)
        runs)
    runs;
  match !errors with [] -> Ok () | es -> Error (String.concat "\n" (List.rev es))
