(* Differential stress testing: one randomized transaction trace,
   executed under every (algorithm, durability model, flush discipline)
   configuration, must leave the same user-visible heap.

   The trace generator maintains a volatile shadow interpreter while it
   generates, so every emitted action is valid at its program point
   (writes target live blocks, allocs target empty slots) and the
   shadow's final state doubles as the expected digest.  Traces are
   single-threaded: with no conflicts, every configuration executes the
   identical sequence of transactional operations, and any digest
   divergence is a logging/write-back bug, not a scheduling artifact.

   Digests are address-free (per-slot liveness, length and payload
   words) so allocator placement differences between configurations
   cannot cause false alarms. *)

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

(* The user-visible state: per directory slot, the payload of the block
   it points at (None when empty). *)
type digest = int array option array

exception User_abort

let pp_action ppf = function
  | Alloc { slot; words } -> Format.fprintf ppf "alloc[%d]<-%dw" slot words
  | Free { slot } -> Format.fprintf ppf "free[%d]" slot
  | Write { slot; off; value } -> Format.fprintf ppf "write[%d+%d]<-%d" slot off value
  | Read { slot; off } -> Format.fprintf ppf "read[%d+%d]" slot off
  | Abort -> Format.fprintf ppf "abort"

let pp_digest ppf (d : digest) =
  Array.iteri
    (fun i p ->
      match p with
      | None -> ()
      | Some payload ->
        Format.fprintf ppf "[%d]=(%s) " i
          (String.concat "," (List.map string_of_int (Array.to_list payload))))
    d

let digest_equal (a : digest) (b : digest) = a = b

(* ---------- generation ---------- *)

let gen_trace ?(slots = 8) ?(txns = 40) seed =
  let rng = Rng.create seed in
  let shadow : digest = Array.make slots None in
  let indices = List.init slots Fun.id in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let gen_txn () =
    (* Deep copy: an aborted transaction's writes must not leak into
       the shadow through shared payload arrays. *)
    let overlay = Array.map (Option.map Array.copy) shadow in
    let n = 1 + Rng.int rng 6 in
    let acts = ref [] in
    for _ = 1 to n do
      let live = List.filter (fun i -> overlay.(i) <> None) indices in
      let empty = List.filter (fun i -> overlay.(i) = None) indices in
      let act =
        if empty <> [] && (live = [] || Rng.chance rng 0.35) then begin
          let slot = pick empty in
          let words = 1 + Rng.int rng 6 in
          overlay.(slot) <- Some (Array.make words 0);
          Alloc { slot; words }
        end
        else begin
          let slot = pick live in
          let payload = Option.get overlay.(slot) in
          match Rng.int rng 10 with
          | 0 | 1 ->
            overlay.(slot) <- None;
            Free { slot }
          | 2 | 3 -> Read { slot; off = Rng.int rng (Array.length payload) }
          | _ ->
            let off = Rng.int rng (Array.length payload) in
            let value = 1 + Rng.int rng 1_000_000 in
            payload.(off) <- value;
            Write { slot; off; value }
        end
      in
      acts := act :: !acts
    done;
    if Rng.chance rng 0.2 then List.rev (Abort :: !acts)
    else begin
      Array.blit overlay 0 shadow 0 slots;
      List.rev !acts
    end
  in
  let txn_list = List.init txns (fun _ -> gen_txn ()) in
  ({ slots; txns = txn_list }, Array.map (Option.map Array.copy) shadow)

(* ---------- execution ---------- *)

type outcome = {
  digest : digest;
  commits : int;
  aborts : int;
  sfences : int;
  clwbs : int;
}

(* Blocks carry their length in word 0 so the digest can be read back
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
  let apply tx = function
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
      ignore (Ptm.read tx (b + 1 + off) : int)
    | Abort -> raise User_abort
  in
  ignore
    (Sim.spawn sim (fun () ->
         List.iter
           (fun txn ->
             match Ptm.atomic ptm (fun tx -> List.iter (apply tx) txn) with
             | () -> ()
             | exception User_abort -> ())
           trace.txns)
      : int);
  Sim.run sim;
  let pstats = Ptm.Stats.get ptm in
  let stats = Sim.Stats.get sim in
  (* The digest readback runs untimed, after the stats snapshot, so it
     perturbs neither timing nor the fence economy being compared. *)
  let digest =
    Array.init trace.slots (fun slot ->
        Ptm.atomic ptm (fun tx ->
            let b = Ptm.read tx (dir + slot) in
            if b = 0 then None
            else
              let words = Ptm.read tx b in
              Some (Array.init words (fun j -> Ptm.read tx (b + 1 + j)))))
  in
  {
    digest;
    commits = pstats.Ptm.Stats.commits;
    aborts = pstats.Ptm.Stats.aborts;
    sfences = stats.Sim.Stats.sfences;
    clwbs = stats.Sim.Stats.clwbs;
  }

(* ---------- the configuration matrix ---------- *)

let matrix =
  [
    ("redo/ADR/coalesced", Config.optane_adr, Ptm.Redo, true);
    ("redo/ADR/naive", Config.optane_adr, Ptm.Redo, false);
    ("redo/eADR/coalesced", Config.optane_eadr, Ptm.Redo, true);
    ("redo/eADR/naive", Config.optane_eadr, Ptm.Redo, false);
    ("undo/ADR/coalesced", Config.optane_adr, Ptm.Undo, true);
    ("undo/ADR/naive", Config.optane_adr, Ptm.Undo, false);
    ("undo/eADR/coalesced", Config.optane_eadr, Ptm.Undo, true);
    ("undo/eADR/naive", Config.optane_eadr, Ptm.Undo, false);
    ("htm/eADR", Config.optane_eadr, Ptm.Htm, true);
    ("redo/transient/coalesced", Config.transient_cache, Ptm.Redo, true);
    ("redo/transient/naive", Config.transient_cache, Ptm.Redo, false);
    ("undo/transient/coalesced", Config.transient_cache, Ptm.Undo, true);
    ("undo/transient/naive", Config.transient_cache, Ptm.Undo, false);
    ("htm/transient", Config.transient_cache, Ptm.Htm, true);
    ("redo/htm-commit/coalesced", Config.htm_commit, Ptm.Redo, true);
    ("redo/htm-commit/naive", Config.htm_commit, Ptm.Redo, false);
    ("htm/htm-commit", Config.htm_commit, Ptm.Htm, true);
    (* MOD buffers writes volatile and publishes through a root swap;
       traces that update several directory slots in one transaction
       exercise its redo fallback, so these rows cover both paths. *)
    ("mod/ADR/coalesced", Config.optane_adr, Ptm.Mod, true);
    ("mod/ADR/naive", Config.optane_adr, Ptm.Mod, false);
    ("mod/eADR/coalesced", Config.optane_eadr, Ptm.Mod, true);
    ("mod/transient/coalesced", Config.transient_cache, Ptm.Mod, true);
    ("mod/htm-commit/coalesced", Config.htm_commit, Ptm.Mod, true);
  ]

let check_seed ?slots ?txns seed =
  let trace, expected = gen_trace ?slots ?txns seed in
  let runs =
    List.map
      (fun (name, model, algorithm, coalesce) ->
        (name, coalesce, execute ~model ~algorithm ~coalesce trace))
      matrix
  in
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun (name, _, o) ->
      if not (digest_equal o.digest expected) then
        err "seed %d: %s diverges from the shadow: got %a, expected %a" seed name pp_digest
          o.digest pp_digest expected)
    runs;
  (* Coalescing is a flush-traffic optimisation, never a semantics
     change: for each algorithm x model pair it must not add fences or
     write-backs over the naive discipline. *)
  let find name =
    match List.find_opt (fun (n, _, _) -> n = name) runs with
    | Some (_, _, o) -> o
    | None -> invalid_arg ("check_seed: no run named " ^ name)
  in
  List.iter
    (fun prefix ->
      let c = find (prefix ^ "/coalesced") and n = find (prefix ^ "/naive") in
      if c.sfences > n.sfences then
        err "seed %d: %s/coalesced issues %d fences, more than naive's %d" seed prefix c.sfences
          n.sfences;
      if c.clwbs > n.clwbs then
        err "seed %d: %s/coalesced issues %d clwbs, more than naive's %d" seed prefix c.clwbs
          n.clwbs)
    [
      "redo/ADR";
      "redo/eADR";
      "undo/ADR";
      "undo/eADR";
      "redo/transient";
      "undo/transient";
      "redo/htm-commit";
      "mod/ADR";
    ];
  match !errors with [] -> Ok () | es -> Error (String.concat "\n" (List.rev es))
