(* Serial transactions: outside [Sim.run] the machine is exclusive, and
   a transaction skips the orec protocol.  Every check compares the
   serial path against the full protocol, forced on the same machine by
   a facade whose [exclusive] always answers [false]. *)

open Pstm
module Sim = Memsim.Sim
module Config = Memsim.Config
module Meta = Machine.Meta_layout

let protocol (m : Machine.t) = { m with Machine.exclusive = (fun () -> false) }

(* A facade counting compare-and-swaps on orec slots. *)
let counting_orec_cas (m : Machine.t) =
  let n = ref 0 in
  let meta_cas i e v =
    if i >= Meta.orec_base then incr n;
    m.Machine.meta_cas i e v
  in
  ({ m with Machine.meta_cas }, n)

let digest_words n read =
  let b = Buffer.create (8 * n) in
  for i = 0 to n - 1 do
    Buffer.add_int64_le b (Int64.of_int (read i))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Every PTM here runs 2^12 orecs, which keeps the metadata digests
   cheap: they cover the clock, the allocator's high-water mark and
   every orec. *)
let orec_bits = 12

let meta_digest (m : Machine.t) =
  digest_words (Meta.orec_base + (1 lsl orec_bits)) m.Machine.meta_get

(* Everything the machine and the PTM keep after an untimed phase: the
   heap and its surviving media image, every metadata slot (clock,
   allocator high-water mark, orecs), the machine counters, the dirty
   L3 lines and the PTM's statistics. *)
let state sim (m : Machine.t) ptm =
  let s = Ptm.Stats.get ptm in
  let live =
    [
      "heap=" ^ digest_words m.Machine.words m.Machine.raw_read;
      "meta=" ^ meta_digest m;
      Printf.sprintf "clock=%d" (m.Machine.meta_get Meta.clock_idx);
      Printf.sprintf "dirty=%d"
        (Sim.Debt.sample sim ~armed_log_lines:(fun () -> Ptm.armed_log_lines ptm))
          .Sim.Debt.dirty_l3_lines;
      Printf.sprintf "commits=%d aborts=%d ro=%d max_ws=%d max_log=%d" s.Ptm.Stats.commits
        s.Ptm.Stats.aborts s.Ptm.Stats.read_only_commits s.Ptm.Stats.max_write_set
        s.Ptm.Stats.max_log_lines;
    ]
    @ List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Sim.Stats.fields (Sim.Stats.get sim))
  in
  (* Last: a reboot takes over the machine's metadata space. *)
  let image = Sim.reboot sim in
  let media = Sim.machine image in
  let media_digest = digest_words media.Machine.words media.Machine.raw_read in
  Sim.release image;
  String.concat " " (live @ [ "media=" ^ media_digest ])

(* A small population: a B+Tree (MOD's path-copied one under MOD), a
   hash table (MOD falls back to redo on updates of a bucket head it
   did not allocate), lookups, removals, and a transaction that writes
   fresh and home words and raises. *)
let populate ptm =
  let rng = Repro_util.Rng.create 7 in
  let key () = 1 + Repro_util.Rng.int rng 4096 in
  (match Ptm.algorithm ptm with
  | Ptm.Mod ->
    let t = Pstructs.Mod_bptree.create ptm in
    for _ = 1 to 1500 do
      let key = key () in
      Ptm.atomic ptm (fun tx -> ignore (Pstructs.Mod_bptree.insert tx t ~key ~value:key : bool))
    done
  | _ ->
    let t = Pstructs.Bptree.create ptm in
    for _ = 1 to 1500 do
      let key = key () in
      Ptm.atomic ptm (fun tx -> ignore (Pstructs.Bptree.insert tx t ~key ~value:key : bool))
    done);
  let h = Pstructs.Phashtable.create ptm ~buckets:512 in
  for i = 1 to 1500 do
    let key = key () in
    Ptm.atomic ptm (fun tx ->
        match i mod 3 with
        | 0 -> ignore (Pstructs.Phashtable.put tx h ~key ~value:i : bool)
        | 1 -> ignore (Pstructs.Phashtable.get tx h key : int option)
        | _ -> ignore (Pstructs.Phashtable.remove tx h key : bool))
  done;
  let home = Ptm.atomic ptm (fun tx -> Ptm.alloc tx 4) in
  try
    Ptm.atomic ptm (fun tx ->
        let node = Ptm.alloc tx 8 in
        Ptm.write tx node 1;
        Ptm.write tx home node;
        Ptm.write tx (home + 1) 2;
        failwith "abort")
  with Failure _ -> ()

let run_population ~serial ~model ~algorithm =
  let sim, m = Helpers.sim_machine ~model ~heap_words:(1 lsl 18) () in
  let facade, cas = counting_orec_cas (if serial then m else protocol m) in
  let ptm = Ptm.create ~algorithm ~orec_bits ~max_threads:4 facade in
  populate ptm;
  let st = state sim m ptm in
  Sim.release sim;
  (st, !cas)

let cells =
  List.concat_map
    (fun model ->
      List.filter_map
        (fun algorithm ->
          if
            Ptm.runs_on algorithm ~needs_flush:(Config.needs_flush model)
              ~durable_publish:model.Config.durable_publish
          then Some (model, algorithm)
          else None)
        Ptm.algorithms)
    [ Config.optane_adr; Config.optane_eadr ]

let same_state_cases =
  List.map
    (fun (model, algorithm) ->
      let name =
        Printf.sprintf "serial: same state as the protocol (%s/%s)" model.Config.model_name
          (Ptm.algorithm_name algorithm)
      in
      Alcotest.test_case name `Quick (fun () ->
          let serial, serial_cas = run_population ~serial:true ~model ~algorithm in
          let full, full_cas = run_population ~serial:false ~model ~algorithm in
          Alcotest.(check string) "machine and PTM state" full serial;
          Helpers.check_int "serial orec CAS" 0 serial_cas;
          Helpers.check_bool "the protocol CASes orecs" true (full_cas > 0)))
    cells

let test_exclusive_outside_run () =
  let sim, m = Helpers.sim_machine () in
  Helpers.check_bool "exclusive before run" true (m.Machine.exclusive ());
  let inside = ref [] in
  Helpers.run_workers sim 2 (fun _ -> inside := m.Machine.exclusive () :: !inside);
  Alcotest.(check (list bool)) "not exclusive inside run" [ false; false ] !inside;
  Helpers.check_bool "exclusive after run" true (m.Machine.exclusive ());
  let native = Machine.Native.create ~words:64 ~meta_words:128 in
  Helpers.check_bool "native never exclusive" false (native.Machine.exclusive ())

(* A serial abort locked nothing, so it must restore nothing: an orec
   restore from its empty pre-lock table would write the [absent]
   sentinel (-1, a lock word) into every orec of the write set. *)
let test_serial_abort_leaves_orecs () =
  List.iter
    (fun (model, algorithm) ->
      let label = model.Config.model_name ^ "/" ^ Ptm.algorithm_name algorithm in
      let sim, m = Helpers.sim_machine ~model () in
      let ptm = Ptm.create ~algorithm ~orec_bits ~max_threads:4 m in
      let base = Ptm.atomic ptm (fun tx -> Ptm.alloc tx 16) in
      let words = List.init 4 (fun i -> base + (5 * i)) in
      Ptm.atomic ptm (fun tx -> List.iter (fun a -> Ptm.write tx a 7) words);
      let before = meta_digest m in
      (try
         Ptm.atomic ptm (fun tx ->
             List.iter (fun a -> Ptm.write tx a 9) words;
             failwith "abort")
       with Failure _ -> ());
      Alcotest.(check string) (label ^ ": orecs and clock unchanged") before (meta_digest m);
      let check_values what v =
        List.iter (fun a -> Helpers.check_int (label ^ ": " ^ what) v (m.Machine.raw_read a)) words
      in
      check_values "value kept" 7;
      let commits = (Ptm.Stats.get ptm).Ptm.Stats.commits in
      Helpers.run_workers sim 1 (fun _ ->
          Ptm.atomic ptm (fun tx -> List.iter (fun a -> Ptm.write tx a 11) words));
      Helpers.check_int (label ^ ": the timed transaction commits") (commits + 1)
        (Ptm.Stats.get ptm).Ptm.Stats.commits;
      check_values "timed value" 11)
    cells

(* HTM's capacity rule counts the read set, which a serial transaction
   does not record: it must still abort past the cap and fall back to
   redo exactly as the protocol path does. *)
let test_serial_htm_capacity () =
  let run ~serial =
    let sim, m = Helpers.sim_machine ~model:Config.optane_eadr ~heap_words:(1 lsl 16) () in
    let facade = if serial then m else protocol m in
    let ptm = Ptm.create ~algorithm:Ptm.Htm ~orec_bits ~max_threads:4 facade in
    let words = 1500 in
    let base = Ptm.atomic ptm (fun tx -> Ptm.alloc tx words) in
    Ptm.Stats.reset ptm;
    let sum =
      Ptm.atomic ptm (fun tx ->
          let s = ref 0 in
          for i = 0 to words - 1 do
            s := !s + Ptm.read tx (base + i)
          done;
          Ptm.write tx base (!s + 1);
          !s)
    in
    let st = state sim m ptm in
    Sim.release sim;
    (sum, (Ptm.Stats.get ptm).Ptm.Stats.aborts, st)
  in
  let sum, aborts, st = run ~serial:true in
  let sum', aborts', st' = run ~serial:false in
  Helpers.check_bool "the protocol path aborts on capacity" true (aborts' > 0);
  Helpers.check_int "same aborts" aborts' aborts;
  Helpers.check_int "same result" sum' sum;
  Alcotest.(check string) "same state" st' st

let suite =
  same_state_cases
  @ [
      Alcotest.test_case "serial: exclusive only outside Sim.run" `Quick test_exclusive_outside_run;
      Alcotest.test_case "serial: abort leaves orecs, timed tx commits" `Quick
        test_serial_abort_leaves_orecs;
      Alcotest.test_case "serial: htm read capacity falls back alike" `Quick
        test_serial_htm_capacity;
    ]
