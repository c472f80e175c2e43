module Config = Memsim.Config
module Ptm = Pstm.Ptm
module Rng = Repro_util.Rng
module IntMap = Map.Make (Int)
module IntSet = Set.Make (Int)

(* Roots used by every scenario: slot 0 holds the scenario's top-level
   persistent address. *)
let root_slot = 0

(* ---------- dlin plumbing shared by every scenario ---------- *)

(* Every worker wraps each logical operation in [Dlin.History.run]
   against the virtual clock, so the instance accumulates a timed
   invocation/response history.  After the crash the oracle extracts the
   recovered abstract state and asks {!Dlin.check} for a durable
   linearization explaining it. *)

let record h ~tid ~now op f = ignore (Dlin.History.run h ~tid ~now op f)

(* Extraction that found data no abstract state can hold (torn payload,
   non-numeric counter, missing marker) fails before the search, with
   the same replayable dump format. *)
let judge ?(durability = fun ~crashed:_ _ -> `Strict) spec h extract ~crashed _sim rt =
  match extract rt with
  | Error reason ->
    Error
      {
        Engine.fail_reason = reason;
        counterexample = Some (Dlin.dump spec h ~recovered:None ~reason ~nodes:0);
      }
  | Ok recovered -> (
    match Dlin.check ~durability:(durability ~crashed rt) spec h ~recovered with
    | Ok (_ : Dlin.stats) -> Ok ()
    | Error c ->
      Error { Engine.fail_reason = "dlin: " ^ c.Dlin.reason; counterexample = Some c.Dlin.jsonl })

(* An extraction [f fail] that keeps reading past bad data — the
   recovered machine sees the same loads whatever it finds — and fails
   with the first complaint passed to [fail]. *)
let first_complaint f =
  let err = ref None in
  let v = f (fun s -> if !err = None then err := Some s) in
  match !err with Some reason -> Error reason | None -> Ok v

(* One seed's workload.  [work] is the body of simulated thread [tid]
   and passes each logical operation through [record]; [extract] reads
   the recovered abstract state; [validate] holds only what dlin cannot
   express (a buffered lag budget, allocator accounting). *)
type ('st, 'op, 'res) run = {
  work : record:('op -> (unit -> 'res) -> unit) -> tid:int -> Ptm.t -> unit;
  extract : Ptm.t -> ('st, string) result;
  validate : crashed:bool -> Ptm.t -> (unit, string) result;
}

(* Strict durable linearizability already implies every invariant most
   scenarios promise, so dlin judges them alone. *)
let no_validate ~crashed:_ _ptm = Ok ()

(* The algorithm columns of a logging scenario.  Undo's eager in-place
   stores are pointless inside a hardware transaction, so HTM-commit
   sweeps Htm instead. *)
let logged model = [ Ptm.Redo; (if model == Config.htm_commit then Ptm.Htm else Ptm.Undo) ]

(* The one constructor of the PTM scenarios.  The name encodes the flush
   discipline, so a replay spec printed for a naive-mode failure
   reconstructs the same scenario through {!find}. *)
let scenario name ?(coalesce = true) ?(algorithms = logged) ~threads ?(heap_words = 1 lsl 16)
    ?(log_words = 512) ?durability ~prepare spec (run : seed:int -> _ run) =
  let fresh ~seed =
    let h = Dlin.History.create ~threads in
    let r = run ~seed in
    let worker ~tid ptm =
      r.work ~record:(record h ~tid ~now:(Ptm.machine ptm).Machine.now_ns) ~tid ptm
    in
    {
      Engine.worker;
      validate = (fun ~crashed _sim ptm -> r.validate ~crashed ptm);
      oracle = Some (judge ?durability spec h r.extract);
    }
  in
  {
    Engine.name = (if coalesce then name else name ^ "-naive");
    threads;
    heap_words;
    log_words_per_thread = log_words;
    coalesce;
    algorithms;
    prepare;
    fresh;
  }

let hash_int_array a = Array.fold_left (fun h v -> (h * 31) + v + 1) 17 a
let pp_ints a = String.concat ";" (Array.to_list (Array.map string_of_int a))

(* ---------- bank: money conservation + per-thread sequence cells ---------- *)

type bank_op = { btid : int; bop : int; src : int; dst : int; amount : int }
type bank_state = { bal : int array; bseq : int array }

(* Sequential semantics of one transfer, mirroring the transaction body
   exactly: both reads happen before both writes (the generator never
   aliases [src = dst], but the model stays faithful to the store order
   regardless), then the thread's sequence cell takes the op number.
   The response is the pair of values read.  {!fams_bank} shares it. *)
let transfer_spec ~accounts ~threads ~initial =
  {
    Dlin.init = { bal = Array.make accounts initial; bseq = Array.make threads 0 };
    apply =
      (fun st o ->
        let bal = Array.copy st.bal and bseq = Array.copy st.bseq in
        let s = bal.(o.src) and d = bal.(o.dst) in
        bal.(o.src) <- s - o.amount;
        bal.(o.dst) <- d + o.amount;
        bseq.(o.btid) <- o.bop;
        ({ bal; bseq }, (s, d)));
    equal_state = (fun a b -> a.bal = b.bal && a.bseq = b.bseq);
    hash_state = (fun st -> (hash_int_array st.bal * 31) + hash_int_array st.bseq);
    equal_res = ( = );
    commutes =
      (fun a b ->
        (* Disjoint account sets: state effects and both responses are
           independent of order (seq cells are per-thread, and the
           checker only asks about different threads). *)
        a.src <> b.src && a.src <> b.dst && a.dst <> b.src && a.dst <> b.dst);
    pp_op =
      (fun ppf o ->
        Format.fprintf ppf "t%d#%d: transfer %d %d->%d" o.btid o.bop o.amount o.src o.dst);
    pp_res = (fun ppf (s, d) -> Format.fprintf ppf "read (%d, %d)" s d);
    pp_state =
      (fun ppf st -> Format.fprintf ppf "bal=[%s] seq=[%s]" (pp_ints st.bal) (pp_ints st.bseq));
  }

let random_transfer rng ~accounts ~tid ~op =
  let src = Rng.int rng accounts in
  (* Never [src = dst]: both reads precede both writes in the
     transaction body, so an aliased transfer would net +amount and
     money would no longer be conserved. *)
  let dst = (src + 1 + Rng.int rng (accounts - 1)) mod accounts in
  let amount = 1 + Rng.int rng 5 in
  { btid = tid; bop = op; src; dst; amount }

let bank ?(threads = 4) ?(ops = 10) ?coalesce () =
  let accounts = 32 and initial = 100 in
  let prepare ptm =
    let base =
      Ptm.atomic ptm (fun tx ->
          let b = Ptm.alloc tx (accounts + threads) in
          for i = 0 to accounts - 1 do
            Ptm.write tx (b + i) initial
          done;
          for j = 0 to threads - 1 do
            Ptm.write tx (b + accounts + j) 0
          done;
          b)
    in
    Ptm.root_set ptm root_slot base
  in
  scenario "bank" ?coalesce ~threads ~prepare (transfer_spec ~accounts ~threads ~initial)
    (fun ~seed ->
      {
        work =
          (fun ~record ~tid ptm ->
            let rng = Rng.create (seed + (7919 * tid)) in
            let base = Ptm.root_get ptm root_slot in
            for op = 1 to ops do
              let o = random_transfer rng ~accounts ~tid ~op in
              record o (fun () ->
                  Ptm.atomic ptm (fun tx ->
                      let s = Ptm.read tx (base + o.src) in
                      let d = Ptm.read tx (base + o.dst) in
                      Ptm.write tx (base + o.src) (s - o.amount);
                      Ptm.write tx (base + o.dst) (d + o.amount);
                      (* The sequence cell makes lost/partial transactions
                         visible even when the transfer itself happens to
                         conserve money. *)
                      Ptm.write tx (base + accounts + tid) op;
                      (s, d)))
            done);
        extract =
          (fun ptm ->
            let base = Ptm.root_get ptm root_slot in
            Ok
              (Ptm.atomic ptm (fun tx ->
                   {
                     bal = Array.init accounts (fun i -> Ptm.read tx (base + i));
                     bseq = Array.init threads (fun j -> Ptm.read tx (base + accounts + j));
                   })));
        validate = no_validate;
      })

(* ---------- counters: whole-write-set atomicity ---------- *)

(* A counter bumped once per operation.  The response (the new value)
   pins each increment to one slot of a total order, so exactly-once
   increments fall out of the dlin search.  [counters] and [kv_incr]
   share it. *)
type incr_op = { itid : int; iop : int }

let incr_spec ~op ~state =
  {
    Dlin.init = 0;
    apply = (fun st (_ : incr_op) -> (st + 1, st + 1));
    equal_state = Int.equal;
    hash_state = Fun.id;
    equal_res = Int.equal;
    commutes = (fun _ _ -> false);
    pp_op = (fun ppf o -> Format.fprintf ppf "t%d#%d: %s" o.itid o.iop op);
    pp_res = Format.pp_print_int;
    pp_state = (fun ppf v -> Format.fprintf ppf "%s=%d" state v);
  }

let counters () =
  let slots = 8 and threads = 4 and ops = 8 in
  let prepare ptm =
    let base =
      Ptm.atomic ptm (fun tx ->
          let b = Ptm.alloc tx slots in
          for i = 0 to slots - 1 do
            Ptm.write tx (b + i) 0
          done;
          b)
    in
    Ptm.root_set ptm root_slot base
  in
  (* All slots always hold the same value, so the abstract state is one
     integer. *)
  scenario "counters" ~threads ~prepare (incr_spec ~op:"incr-all" ~state:"slots") (fun ~seed:_ ->
      {
        work =
          (fun ~record ~tid ptm ->
            let base = Ptm.root_get ptm root_slot in
            for op = 1 to ops do
              record { itid = tid; iop = op } (fun () ->
                  Ptm.atomic ptm (fun tx ->
                      let v = Ptm.read tx (base + 0) + 1 in
                      for i = 0 to slots - 1 do
                        Ptm.write tx (base + i) v
                      done;
                      v))
            done);
        extract =
          (fun ptm ->
            let base = Ptm.root_get ptm root_slot in
            let values =
              Ptm.atomic ptm (fun tx -> List.init slots (fun i -> Ptm.read tx (base + i)))
            in
            let v0 = List.hd values in
            if List.exists (fun v -> v <> v0) values then
              Error
                (Printf.sprintf "counters: slots diverge after recovery: [%s]"
                   (String.concat "; " (List.map string_of_int values)))
            else Ok v0);
        validate = no_validate;
      })

(* ---------- key-value trees: btree, mod-btree, mod-hash ---------- *)

(* One scenario body shared by the B+Tree and the MOD structures.  Each
   thread works a private key range [(tid + 1) * 1000 + i] with a
   deterministic script, so the abstract state after any per-thread
   prefix is computable without replaying the run.  The B+Tree script
   only inserts; the MOD one removes, every fourth op, the key inserted
   just before it.

   Durability is the interesting part: under algorithm [Mod] the root
   swap is published with an {e unfenced} flush, so a crash may lose a
   committed suffix of the serialized history.  The oracle therefore
   runs {!Dlin.check} with [`Buffered] durability on a crashed MOD run
   and strict otherwise (the same structures are legal strict-durable
   under redo/undo logging, and a crash-free run loses nothing).  A
   buffered cut may be any real-time-closed prefix, so the validate
   bounds how much it lost: the committed-but-lost total across threads
   stays within the write-pending-queue lag — the commits after the
   durable snapshot all raced their root flush against the crash, one
   unfenced flush deep per thread. *)

type tree_op = { mtid : int; mseq : int; mkey : int; minsert : bool; mvalue : int }

type 'h tree = {
  create : Ptm.t -> int;  (* builds the structure, returns its descriptor *)
  attach : Ptm.t -> int -> 'h;
  insert : Ptm.tx -> 'h -> key:int -> value:int -> bool;
  remove : Ptm.tx -> 'h -> int -> bool;
  invariants : 'h -> unit;
  alist : 'h -> (int * int) list;
}

let tree_spec =
  {
    Dlin.init = IntMap.empty;
    apply =
      (fun st o ->
        if o.minsert then (IntMap.add o.mkey o.mvalue st, not (IntMap.mem o.mkey st))
        else (IntMap.remove o.mkey st, IntMap.mem o.mkey st));
    equal_state = IntMap.equal Int.equal;
    hash_state = (fun st -> IntMap.fold (fun k v h -> (h * 31) + (k lxor (v * 7))) st 17);
    equal_res = Bool.equal;
    commutes = (fun a b -> a.mkey <> b.mkey);
    pp_op =
      (fun ppf o ->
        if o.minsert then Format.fprintf ppf "t%d#%d: insert %d=%d" o.mtid o.mseq o.mkey o.mvalue
        else Format.fprintf ppf "t%d#%d: remove %d" o.mtid o.mseq o.mkey);
    pp_res = Format.pp_print_bool;
    pp_state =
      (fun ppf st ->
        Format.fprintf ppf "{%s}"
          (String.concat ";"
             (List.map (fun (k, v) -> Printf.sprintf "%d=%d" k v) (IntMap.bindings st))));
  }

let tree_scenario (tr : _ tree) name ~op_of ?coalesce ?algorithms ~threads ~ops ~heap_words () =
  (* Abstract per-thread states after each script prefix. *)
  let prefix_states ~tid =
    let states = Array.make (ops + 1) IntMap.empty in
    for i = 1 to ops do
      let o = op_of ~tid ~i in
      states.(i) <-
        (if o.minsert then IntMap.add o.mkey o.mvalue states.(i - 1)
         else IntMap.remove o.mkey states.(i - 1))
    done;
    states
  in
  let buffered ~crashed ptm = crashed && Ptm.algorithm ptm = Ptm.Mod in
  let extract ptm =
    let t = tr.attach ptm (Ptm.root_get ptm root_slot) in
    match tr.invariants t with
    | exception Failure e -> Error (name ^ ": structural violation: " ^ e)
    | () -> Ok (List.fold_left (fun m (k, v) -> IntMap.add k v m) IntMap.empty (tr.alist t))
  in
  scenario name ?coalesce ?algorithms ~threads ~heap_words ~log_words:2048
    ~durability:(fun ~crashed ptm -> if buffered ~crashed ptm then `Buffered else `Strict)
    ~prepare:(fun ptm -> Ptm.root_set ptm root_slot (tr.create ptm))
    tree_spec
    (fun ~seed:_ ->
      let committed = Array.make threads 0 in
      let work ~record ~tid ptm =
        let t = tr.attach ptm (Ptm.root_get ptm root_slot) in
        for i = 1 to ops do
          let o = op_of ~tid ~i in
          record o (fun () ->
              Ptm.atomic ptm (fun tx ->
                  let res =
                    if o.minsert then tr.insert tx t ~key:o.mkey ~value:o.mvalue
                    else tr.remove tx t o.mkey
                  in
                  Ptm.on_commit tx (fun () -> committed.(tid) <- i);
                  res))
        done
      in
      let validate ~crashed ptm =
        if not (buffered ~crashed ptm) then Ok ()
        else
          Result.bind (extract ptm) (fun recovered ->
              let per_tid = Array.make threads IntMap.empty in
              IntMap.iter
                (fun k v ->
                  let tid = (k / 1000) - 1 in
                  if tid >= 0 && tid < threads then per_tid.(tid) <- IntMap.add k v per_tid.(tid))
                recovered;
              let lost = ref 0 in
              for tid = 0 to threads - 1 do
                let states = prefix_states ~tid in
                (* Most charitable consistent prefix: states can repeat
                   (insert x; remove x), so scan from the deepest. *)
                let rec deepest j =
                  if j < 0 || IntMap.equal Int.equal states.(j) per_tid.(tid) then j
                  else deepest (j - 1)
                in
                lost := !lost + max 0 (committed.(tid) - deepest ops)
              done;
              (* Buffered durability may lose commits whose root flush
                 was still in the write-pending queue at the crash — a
                 race one unfenced flush deep per thread plus scheduling
                 slack, nowhere near "everything". *)
              let budget = threads + 2 in
              if !lost > budget then
                Error
                  (Printf.sprintf "%s: %d committed ops lost (buffered lag budget %d)" name !lost
                     budget)
              else Ok ())
      in
      { work; extract; validate })

let btree ?coalesce () =
  tree_scenario
    {
      create = (fun ptm -> Pstructs.Bptree.(descriptor (create ptm)));
      attach = Pstructs.Bptree.attach;
      insert = Pstructs.Bptree.insert;
      remove = Pstructs.Bptree.remove;
      invariants = Pstructs.Bptree.check_invariants;
      alist = Pstructs.Bptree.to_alist;
    }
    "btree"
    ~op_of:(fun ~tid ~i ->
      let key = ((tid + 1) * 1000) + i in
      { mtid = tid; mseq = i; mkey = key; minsert = true; mvalue = (key * 3) + 1 })
    ?coalesce ~threads:4 ~ops:8 ~heap_words:(1 lsl 17) ()

(* The MOD structures sweep their own buffered single-fence discipline
   plus Redo as the strict-durability differential; Undo/Htm would add
   nothing the other scenarios don't already cover. *)
let buffered _model = [ Ptm.Mod; Ptm.Redo ]

let mod_op_of ~tid ~i =
  let key = ((tid + 1) * 1000) + i in
  if i mod 4 = 0 then { mtid = tid; mseq = i; mkey = key - 1; minsert = false; mvalue = 0 }
  else { mtid = tid; mseq = i; mkey = key; minsert = true; mvalue = (key * 5) + 3 }

let mod_btree ?(threads = 3) ?(ops = 8) () =
  tree_scenario
    {
      create = (fun ptm -> Pstructs.Mod_bptree.(descriptor (create ptm)));
      attach = Pstructs.Mod_bptree.attach;
      insert = Pstructs.Mod_bptree.insert;
      remove = Pstructs.Mod_bptree.remove;
      invariants = Pstructs.Mod_bptree.check_invariants;
      alist = Pstructs.Mod_bptree.to_alist;
    }
    "mod-btree" ~op_of:mod_op_of ~algorithms:buffered ~threads ~ops ~heap_words:(1 lsl 18) ()

let mod_hash () =
  tree_scenario
    {
      create = (fun ptm -> Pstructs.Mod_phashtable.(descriptor (create ptm ~buckets:64)));
      attach = Pstructs.Mod_phashtable.attach;
      insert = Pstructs.Mod_phashtable.put;
      remove = Pstructs.Mod_phashtable.remove;
      invariants = Pstructs.Mod_phashtable.check_invariants;
      alist = Pstructs.Mod_phashtable.to_alist;
    }
    "mod-hash" ~op_of:mod_op_of ~algorithms:buffered ~threads:3 ~ops:8 ~heap_words:(1 lsl 18) ()

(* ---------- alloc churn: allocator accounting under a slot directory ---------- *)

(* Each thread owns [ops] one-word slots of a persistent directory;
   operation [j] either allocates a fresh block (stamp in word 0,
   address-independent signature words after it) and publishes its
   address in slot [j], or frees the most recently acquired live block
   and zeroes its slot — each in one transaction.  The abstract state is
   just the stamp-per-slot vector, so the oracle never has to model the
   allocator's address choices. *)

type alloc_op =
  | Acquire of { atid : int; aslot : int; words : int; stamp : int }
  | Release of { rtid : int; rslot : int }

let alloc_payload_sig stamp k tid = (stamp * 31) + (k * 7) + tid + 1000

let alloc_churn () =
  let threads = 4 and ops = 10 in
  let prepare ptm =
    let dir =
      Ptm.atomic ptm (fun tx ->
          let d = Ptm.alloc tx (threads * ops) in
          for i = 0 to (threads * ops) - 1 do
            Ptm.write tx (d + i) 0
          done;
          d)
    in
    Ptm.root_set ptm root_slot dir
  in
  let spec =
    {
      Dlin.init = Array.make (threads * ops) 0;
      apply =
        (fun st o ->
          let st = Array.copy st in
          (match o with
          | Acquire { atid; aslot; stamp; _ } -> st.((atid * ops) + aslot) <- stamp
          | Release { rtid; rslot } -> st.((rtid * ops) + rslot) <- 0);
          (st, ()));
      equal_state = ( = );
      hash_state = hash_int_array;
      equal_res = (fun () () -> true);
      (* Slots are per-thread and responses are unit, so cross-thread
         operations always commute — the search degenerates to checking
         each thread's durable prefix independently. *)
      commutes = (fun _ _ -> true);
      pp_op =
        (fun ppf -> function
          | Acquire { atid; aslot; words; stamp } ->
            Format.fprintf ppf "t%d: acquire slot %d (%d words, stamp %d)" atid aslot words
              stamp
          | Release { rtid; rslot } -> Format.fprintf ppf "t%d: release slot %d" rtid rslot);
      pp_res = (fun ppf () -> Format.pp_print_string ppf "()");
      pp_state = (fun ppf st -> Format.fprintf ppf "stamps=[%s]" (pp_ints st));
    }
  in
  scenario "alloc" ~threads ~prepare spec (fun ~seed ->
      (* The op schedule is a pure function of the seed, so the
         extraction can look up each slot's expected block shape. *)
      let schedule =
        Array.init threads (fun tid ->
            let rng = Rng.create (seed + (104729 * tid)) in
            let owned = ref [] in
            Array.init ops (fun j ->
                if !owned <> [] && Rng.chance rng 0.3 then begin
                  let slot = List.hd !owned in
                  owned := List.tl !owned;
                  Release { rtid = tid; rslot = slot }
                end
                else begin
                  let words = 2 + Rng.int rng 6 in
                  owned := j :: !owned;
                  Acquire { atid = tid; aslot = j; words; stamp = ((tid + 1) * 1000) + j }
                end))
      in
      let committed_live : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let work ~record ~tid ptm =
        let dir = Ptm.root_get ptm root_slot in
        Array.iter
          (fun op ->
            record op (fun () ->
                match op with
                | Acquire { aslot; words; stamp; _ } ->
                  Ptm.atomic ptm (fun tx ->
                      let a = Ptm.alloc tx words in
                      Ptm.write tx a stamp;
                      for k = 1 to words - 1 do
                        Ptm.write tx (a + k) (alloc_payload_sig stamp k tid)
                      done;
                      Ptm.write tx (dir + (tid * ops) + aslot) a;
                      Ptm.on_commit tx (fun () -> Hashtbl.replace committed_live a words))
                | Release { rslot; _ } ->
                  Ptm.atomic ptm (fun tx ->
                      let a = Ptm.read tx (dir + (tid * ops) + rslot) in
                      Ptm.free tx a;
                      Ptm.write tx (dir + (tid * ops) + rslot) 0;
                      Ptm.on_commit tx (fun () -> Hashtbl.remove committed_live a))))
          schedule.(tid)
      in
      let extract ptm =
        let dir = Ptm.root_get ptm root_slot in
        first_complaint (fun fail ->
            Ptm.atomic ptm (fun tx ->
                Array.init (threads * ops) (fun i ->
                    let tid = i / ops and j = i mod ops in
                    let a = Ptm.read tx (dir + i) in
                    if a = 0 then 0
                    else
                      match schedule.(tid).(j) with
                      | Release _ ->
                        Printf.ksprintf fail
                          "alloc: slot %d.%d belongs to a release op but holds addr %d" tid j a;
                        0
                      | Acquire { words; stamp; _ } ->
                        let found = Ptm.read tx a in
                        for k = 1 to words - 1 do
                          let v = Ptm.read tx (a + k) in
                          if v <> alloc_payload_sig stamp k tid then
                            Printf.ksprintf fail
                              "alloc: block %d (slot %d.%d) word %d holds %d, expected %d" a tid
                              j k v (alloc_payload_sig stamp k tid)
                        done;
                        found)))
      in
      let validate ~crashed:_ ptm =
        (* Coarse allocator accounting: every durably committed block is
           visible to the region checker, up to one in-flight operation
           per thread whose hook never ran. *)
        let rep = Pmem.Check.run (Ptm.region ptm) in
        let shadow = Hashtbl.length committed_live in
        if rep.Pmem.Check.live_blocks < shadow - threads then
          Error
            (Printf.sprintf "alloc: checker sees %d live blocks, shadow has %d committed"
               rep.Pmem.Check.live_blocks shadow)
        else Ok ()
      in
      { work; extract; validate })

(* ---------- kvserve: crash mid-batch ---------- *)

(* The KV service's coalesced write path: every thread commits batches
   of sets plus its batch-marker key in ONE transaction, so a crash
   anywhere inside the batch must leave either all of it or none of it
   — and the marker tells which.  Mirrors [Kvserve.Service]'s
   durable-prefix recovery contract at crash-point granularity. *)

let kv_value ~tid ~b ~k = Printf.sprintf "v%d.%d.%d" tid b k
let kv_key ~tid ~b ~k = Printf.sprintf "t%d.b%d.%d" tid b k

(* Markers are fixed-width so every update is a same-length in-place
   [Pblob.set] — one store, no realloc. *)
let kv_marker v = Printf.sprintf "%03d" v

(* A torn or overwritten marker is recovered data no abstract state can
   hold: report it through [fail] (the extraction's complaint) rather
   than raising out of the transaction. *)
let kv_marker_value ~fail m =
  match int_of_string_opt m with
  | Some v -> v
  | None ->
    fail (Printf.sprintf "marker %S is not a number" m);
    0

type kv_batch_op = { ktid : int; kb : int; kn : int }

(* Key triples packed into one int for the abstract key set. *)
let kv_enc ~tid ~b ~k = (((tid * 1024) + b) * 1024) + k

let kv_batch () =
  let threads = 4 and ops = 5 and batch = 4 in
  let prepare ptm =
    let store = Kvserve.Store.create ptm ~buckets:64 in
    Ptm.atomic ptm (fun tx ->
        for tid = 0 to threads - 1 do
          Kvserve.Store.set tx store ~key:(Printf.sprintf "m%d" tid) ~flags:0 (kv_marker 0)
        done)
  in
  let spec =
    {
      Dlin.init = (Array.make threads 0, IntSet.empty);
      apply =
        (fun (markers, keys) o ->
          let markers = Array.copy markers in
          markers.(o.ktid) <- o.kb;
          let keys = ref keys in
          for k = 0 to o.kn - 1 do
            keys := IntSet.add (kv_enc ~tid:o.ktid ~b:o.kb ~k) !keys
          done;
          ((markers, !keys), ()));
      equal_state = (fun (ma, ka) (mb, kb) -> ma = mb && IntSet.equal ka kb);
      hash_state =
        (fun (m, keys) -> IntSet.fold (fun e acc -> (acc * 31) + e) keys (hash_int_array m));
      equal_res = (fun () () -> true);
      commutes = (fun a b -> a.ktid <> b.ktid);
      pp_op = (fun ppf o -> Format.fprintf ppf "t%d: batch %d (%d keys)" o.ktid o.kb o.kn);
      pp_res = (fun ppf () -> Format.pp_print_string ppf "()");
      pp_state =
        (fun ppf (m, keys) ->
          Format.fprintf ppf "markers=[%s] keys=%d" (pp_ints m) (IntSet.cardinal keys));
    }
  in
  scenario "kv-batch" ~threads ~log_words:4096 ~prepare spec (fun ~seed ->
      (* Seeded per-batch jitter so crash candidates land at distinct
         phases of different threads' batches; precomputed so worker and
         extraction agree on every batch's width. *)
      let widths =
        Array.init threads (fun tid ->
            let rng = Rng.create (seed + (7919 * tid)) in
            Array.init ops (fun _ -> batch + Rng.int rng 2))
      in
      {
        work =
          (fun ~record ~tid ptm ->
            let store = Kvserve.Store.attach ptm in
            for b = 1 to ops do
              let n = widths.(tid).(b - 1) in
              record { ktid = tid; kb = b; kn = n } (fun () ->
                  Ptm.atomic ptm (fun tx ->
                      for k = 0 to n - 1 do
                        Kvserve.Store.set tx store ~key:(kv_key ~tid ~b ~k) ~flags:tid
                          (kv_value ~tid ~b ~k)
                      done;
                      Kvserve.Store.set tx store ~key:(Printf.sprintf "m%d" tid) ~flags:0
                        (kv_marker b)))
            done);
        extract =
          (fun ptm ->
            let store = Kvserve.Store.attach ptm in
            first_complaint (fun fail ->
                Ptm.atomic ptm (fun tx ->
                    let markers =
                      Array.init threads (fun tid ->
                          match Kvserve.Store.get tx store (Printf.sprintf "m%d" tid) with
                          | None ->
                            Printf.ksprintf fail "kv-batch: thread %d marker key missing" tid;
                            0
                          | Some (_, m) ->
                            kv_marker_value
                              ~fail:(Printf.ksprintf fail "kv-batch: thread %d %s" tid)
                              m)
                    in
                    let keys = ref IntSet.empty in
                    for tid = 0 to threads - 1 do
                      for b = 1 to ops do
                        for k = 0 to widths.(tid).(b - 1) - 1 do
                          match Kvserve.Store.get tx store (kv_key ~tid ~b ~k) with
                          | None -> ()
                          | Some (flags, v) ->
                            if flags <> tid || not (String.equal v (kv_value ~tid ~b ~k)) then
                              Printf.ksprintf fail "kv-batch: key %s holds %S flags %d"
                                (kv_key ~tid ~b ~k) v flags;
                            keys := IntSet.add (kv_enc ~tid ~b ~k) !keys
                        done
                      done
                    done;
                    (markers, !keys))));
        validate = no_validate;
      })

(* ---------- kvserve: crash between per-shard commits ---------- *)

(* Two stores stand in for two shards of the service sharing a crash
   domain.  Each logical operation commits to shard A, then shard B —
   two independent transactions — so a crash in the window between
   them must leave A exactly one operation ahead of B, never more,
   never the other order.  Under the dlin oracle each per-shard commit
   is its own operation, so the B <= A <= B+1 bound is just "durable
   sets are per-thread prefixes". *)

type kv_xshard_op = XSetA of { xtid : int; xo : int } | XSetB of { xtid : int; xo : int }

let kv_xshard () =
  let threads = 4 and ops = 6 in
  let base_a = 0 and base_b = 2 in
  let prepare ptm =
    let a = Kvserve.Store.create ~root_base:base_a ptm ~buckets:32 in
    let b = Kvserve.Store.create ~root_base:base_b ptm ~buckets:32 in
    Ptm.atomic ptm (fun tx ->
        for tid = 0 to threads - 1 do
          Kvserve.Store.set tx a ~key:(Printf.sprintf "ma%d" tid) ~flags:0 (kv_marker 0);
          Kvserve.Store.set tx b ~key:(Printf.sprintf "mb%d" tid) ~flags:0 (kv_marker 0)
        done)
  in
  let spec =
    {
      Dlin.init = (Array.make threads 0, Array.make threads 0, IntSet.empty);
      apply =
        (fun (ma, mb, keys) o ->
          match o with
          | XSetA { xtid; xo } ->
            let ma = Array.copy ma in
            ma.(xtid) <- xo;
            ((ma, mb, IntSet.add (kv_enc ~tid:xtid ~b:xo ~k:0) keys), ())
          | XSetB { xtid; xo } ->
            let mb = Array.copy mb in
            mb.(xtid) <- xo;
            ((ma, mb, IntSet.add (kv_enc ~tid:xtid ~b:xo ~k:1) keys), ()));
      equal_state =
        (fun (ma, mb, ka) (ma', mb', kb) -> ma = ma' && mb = mb' && IntSet.equal ka kb);
      hash_state =
        (fun (ma, mb, keys) ->
          IntSet.fold
            (fun e acc -> (acc * 31) + e)
            keys
            ((hash_int_array ma * 31) + hash_int_array mb));
      equal_res = (fun () () -> true);
      commutes =
        (fun a b ->
          let tid = function XSetA { xtid; _ } | XSetB { xtid; _ } -> xtid in
          tid a <> tid b);
      pp_op =
        (fun ppf -> function
          | XSetA { xtid; xo } -> Format.fprintf ppf "t%d: set A #%d" xtid xo
          | XSetB { xtid; xo } -> Format.fprintf ppf "t%d: set B #%d" xtid xo);
      pp_res = (fun ppf () -> Format.pp_print_string ppf "()");
      pp_state =
        (fun ppf (ma, mb, _) -> Format.fprintf ppf "A=[%s] B=[%s]" (pp_ints ma) (pp_ints mb));
    }
  in
  (* No per-seed randomness: the interleaving the engine explores comes
     entirely from the crash instant. *)
  scenario "kv-xshard" ~threads ~log_words:4096 ~prepare spec (fun ~seed:_ ->
      {
        work =
          (fun ~record ~tid ptm ->
            let a = Kvserve.Store.attach ~root_base:base_a ptm in
            let b = Kvserve.Store.attach ~root_base:base_b ptm in
            for o = 1 to ops do
              record (XSetA { xtid = tid; xo = o }) (fun () ->
                  Ptm.atomic ptm (fun tx ->
                      Kvserve.Store.set tx a ~key:(Printf.sprintf "a.t%d.%d" tid o) ~flags:o
                        (kv_value ~tid ~b:o ~k:0);
                      Kvserve.Store.set tx a ~key:(Printf.sprintf "ma%d" tid) ~flags:0
                        (kv_marker o)));
              record (XSetB { xtid = tid; xo = o }) (fun () ->
                  Ptm.atomic ptm (fun tx ->
                      Kvserve.Store.set tx b ~key:(Printf.sprintf "b.t%d.%d" tid o) ~flags:o
                        (kv_value ~tid ~b:o ~k:1);
                      Kvserve.Store.set tx b ~key:(Printf.sprintf "mb%d" tid) ~flags:0
                        (kv_marker o)))
            done);
        extract =
          (fun ptm ->
            let a = Kvserve.Store.attach ~root_base:base_a ptm in
            let b = Kvserve.Store.attach ~root_base:base_b ptm in
            first_complaint (fun fail ->
                Ptm.atomic ptm (fun tx ->
                    let marker store name tid =
                      match Kvserve.Store.get tx store (Printf.sprintf "%s%d" name tid) with
                      | None ->
                        Printf.ksprintf fail "kv-xshard: thread %d %s marker missing" tid name;
                        0
                      | Some (_, m) ->
                        kv_marker_value
                          ~fail:(Printf.ksprintf fail "kv-xshard: thread %d %s %s" tid name)
                          m
                    in
                    let ma = Array.init threads (marker a "ma") in
                    let mb = Array.init threads (marker b "mb") in
                    let keys = ref IntSet.empty in
                    let shard store name tid o k =
                      match Kvserve.Store.get tx store (Printf.sprintf "%s.t%d.%d" name tid o) with
                      | None -> ()
                      | Some (flags, v) ->
                        if flags <> o || not (String.equal v (kv_value ~tid ~b:o ~k)) then
                          Printf.ksprintf fail "kv-xshard: key %s.t%d.%d holds %S flags %d" name
                            tid o v flags;
                        keys := IntSet.add (kv_enc ~tid ~b:o ~k) !keys
                    in
                    for tid = 0 to threads - 1 do
                      for o = 1 to ops do
                        shard a "a" tid o 0;
                        shard b "b" tid o 1
                      done
                    done;
                    (ma, mb, !keys))));
        validate = no_validate;
      })

(* ---------- kvserve: exactly-once increments ---------- *)

(* A single shared memcached-style counter bumped by every thread
   through [Kvserve.Store.incr].  The response (the new value) pins
   each increment to one slot of a total order, so the dlin search is
   the exactly-once oracle: a replayed increment (value seen twice) or
   a lost committed one has no explaining linearization. *)

let kv_incr_key = "ctr"

let kv_incr () =
  let threads = 4 and ops = 6 in
  let prepare ptm =
    let store = Kvserve.Store.create ptm ~buckets:32 in
    Ptm.atomic ptm (fun tx -> Kvserve.Store.set tx store ~key:kv_incr_key ~flags:0 "0")
  in
  scenario "kv-incr" ~threads ~log_words:4096 ~prepare (incr_spec ~op:"incr" ~state:"ctr")
    (fun ~seed:_ ->
      {
        work =
          (fun ~record ~tid ptm ->
            let store = Kvserve.Store.attach ptm in
            for op = 1 to ops do
              record { itid = tid; iop = op } (fun () ->
                  Ptm.atomic ptm (fun tx ->
                      match Kvserve.Store.incr tx store kv_incr_key 1 with
                      | Kvserve.Store.New_value v -> v
                      | Missing | Not_numeric -> failwith "kv-incr: counter unreadable"))
            done);
        extract =
          (fun ptm ->
            let store = Kvserve.Store.attach ptm in
            Ptm.atomic ptm (fun tx ->
                match Kvserve.Store.get tx store kv_incr_key with
                | None -> Error "kv-incr: counter key missing"
                | Some (_, v) -> (
                  match int_of_string_opt v with
                  | None -> Error (Printf.sprintf "kv-incr: counter holds non-numeric %S" v)
                  | Some n -> Ok n)));
        validate = no_validate;
      })

(* ---------- FAMS: bank over the snapshot API ---------- *)

(* The msync twin of {!bank}, judged by the same transfer spec with one
   thread: one mutator transfers between scattered one-word accounts in
   the FAMS working area and calls [msync_atomic] every [sync_every]
   operations.  After a crash the dlin oracle runs with [`Buffered]
   durability — recovery restores the last completed sync, so any
   per-thread prefix cut is legal — and the validate closes the gap
   buffered cuts leave open: a sync that {e completed} before the crash
   is FAMS's durability point, so the recovered op counter must reach
   it.  A crash-free run is judged strict. *)
let fams_bank ?(ops = 80) () =
  let accounts = 256 and initial = 100 and sync_every = 8 in
  let spread = 4 in
  (* accounts * spread = 1024 words: the working area spans two pages,
     so line- and page-granularity sweeps journal different unit sets. *)
  let seq_addr = accounts * spread in
  let spec = transfer_spec ~accounts ~threads:1 ~initial in
  let f_prepare fams =
    for i = 0 to accounts - 1 do
      Fams.raw_write fams (i * spread) initial
    done;
    Fams.raw_write fams seq_addr 0
  in
  let f_fresh ~seed =
    let synced = ref 0 in
    let h = Dlin.History.create ~threads:1 in
    let f_worker sim fams =
      let rng = Rng.create (seed + 7919) in
      let now () = float_of_int (Memsim.Sim.now sim) in
      for op = 1 to ops do
        let o = random_transfer rng ~accounts ~tid:0 ~op in
        record h ~tid:0 ~now o (fun () ->
            let s = Fams.read fams (o.src * spread) in
            let d = Fams.read fams (o.dst * spread) in
            Fams.write fams (o.src * spread) (s - o.amount);
            Fams.write fams (o.dst * spread) (d + o.amount);
            Fams.write fams seq_addr op;
            if op mod sync_every = 0 then begin
              Fams.msync_atomic fams;
              synced := op
            end;
            (s, d))
      done
    in
    let extract fams =
      Ok
        {
          bal = Array.init accounts (fun i -> Fams.raw_read fams (i * spread));
          bseq = [| Fams.raw_read fams seq_addr |];
        }
    in
    let f_validate ~crashed:_ _sim fams =
      let seqv = Fams.raw_read fams seq_addr in
      if seqv < !synced then
        Error
          (Printf.sprintf "fams-bank: lost completed sync (op counter %d, last synced op %d)"
             seqv !synced)
      else Ok ()
    in
    let durability ~crashed _ = if crashed then `Buffered else `Strict in
    { Engine.f_worker; f_validate; f_oracle = Some (judge ~durability spec h extract) }
  in
  { Engine.f_name = "fams-bank"; f_words = seq_addr + 1; f_prepare; f_fresh }

let fams_all () = [ fams_bank () ]

let fams_find name =
  match List.find_opt (fun s -> s.Engine.f_name = name) (fams_all ()) with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Scenarios.fams_find: unknown FAMS scenario %S" name)

let all () =
  [
    bank ();
    counters ();
    btree ();
    mod_btree ();
    mod_hash ();
    alloc_churn ();
    kv_batch ();
    kv_xshard ();
    kv_incr ();
    (* The naive per-entry flush discipline is a distinct persistence
       schedule, so its crash points are swept separately. *)
    bank ~coalesce:false ();
    btree ~coalesce:false ();
  ]

let find name =
  match List.find_opt (fun s -> s.Engine.name = name) (all ()) with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Scenarios.find: unknown scenario %S" name)

(* ---------- the crash matrix and its replay lines ---------- *)

let models = Config.[ optane_adr; optane_eadr; pdram; pdram_lite; transient_cache; htm_commit ]

(* FAMS needs no hardware transaction, so HTM-commit adds nothing. *)
let fams_models = Config.[ optane_adr; optane_eadr; transient_cache; pdram; pdram_lite ]

(* Every scenario under every domain, one cell per algorithm column. *)
let cells models columns cell scenarios =
  List.concat_map
    (fun s -> List.concat_map (fun model -> List.map (cell ~model s) (columns s model)) models)
    scenarios

let matrix ?inject () =
  let ptm ~model s algorithm = Engine.ptm_cell ?inject ~model ~algorithm s in
  let fams ~model s granularity = Engine.fams_cell ~model ~granularity s in
  let ptm_cells = cells models (fun s -> s.Engine.algorithms) ptm (all ()) in
  (* The PTM injects mean nothing to FAMS, whose own mutations are
     armed through replay lines and the tier-1 suite. *)
  if Option.is_some inject then ptm_cells
  else ptm_cells @ cells fams_models (fun _ _ -> [ Fams.Line; Fams.Page ]) fams (fams_all ())

let replay spec =
  let unparsed () = invalid_arg (Printf.sprintf "cannot parse %S" spec) in
  let int s = match int_of_string_opt s with Some n -> n | None -> unparsed () in
  (* A present-but-unknown inject name fails rather than silently
     replaying the un-mutated runtime. *)
  let armed of_name = function
    | [] -> None
    | [ name ] -> Some (match of_name name with Some i -> i | None -> unparsed ())
    | _ -> unparsed ()
  in
  (* The alg column picks the runtime. *)
  let cell scen model alg inject =
    let model = Config.model_of_name model in
    match (Ptm.algorithm_of_name (String.lowercase_ascii alg), alg) with
    | Some algorithm, _ ->
      Engine.ptm_cell ?inject:(armed Ptm.inject_of_name inject) ~model ~algorithm (find scen)
    | None, ("fams-line" | "fams-page") ->
      Engine.fams_cell ?inject:(armed Fams.inject_of_name inject) ~model
        ~granularity:(if alg = "fams-line" then Fams.Line else Fams.Page)
        (fams_find scen)
    | None, _ -> unparsed ()
  in
  try
    match String.split_on_char ':' (String.trim spec) with
    | scen :: model :: alg :: seed :: crash_at :: inject ->
      Ok (cell scen model alg inject, int seed, int crash_at)
    | _ -> unparsed ()
  with Invalid_argument msg -> Error msg
