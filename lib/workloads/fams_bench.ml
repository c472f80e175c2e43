(* FAMS workloads: the msync-API twins of the PTM microbenchmarks.

   Each spec mutates a flat working area through [Fams.write]/[read]
   and syncs every [sync_every] operations, so one run measures both
   the mutation path (dirty tracking riding the store fast path) and
   the snapshot path (journal sweep, publish, apply).  The three
   shapes stake out the write-amplification spectrum:

   - [bank]: two scattered one-word balance updates per op — the
     sparse-write case where line-granularity tracking beats page
     tracking by up to 64x;
   - [kv]: open-addressed hash puts, two adjacent words per op at a
     hashed slot — sparse, but key+value usually share a line;
   - [btree]: leaf-clustered sequential appends — the dense case
     where a page entry (513 words) can undercut 64 line entries
     (576 words), the OS-granularity counterargument. *)

module Layout = Machine.Layout
module Rng = Repro_util.Rng

type spec = {
  name : string;
  words : int; (* working-area size *)
  setup : Fams.t -> unit; (* untimed populate (runner checkpoints after) *)
  make_op : Fams.t -> rng:Rng.t -> unit -> unit;
}

(* --- bank: scattered transfers over one-word accounts --- *)

let bank_accounts = 4096
let bank_spread = 4 (* account i lives at word i * spread: 4 accounts/line *)
let bank_initial = 1000

let bank =
  let words = bank_accounts * bank_spread in
  {
    name = "fams-bank";
    words;
    setup =
      (fun f ->
        for a = 0 to bank_accounts - 1 do
          Fams.raw_write f (a * bank_spread) bank_initial
        done);
    make_op =
      (fun f ~rng () ->
        let a = Rng.int rng bank_accounts * bank_spread in
        let b = Rng.int rng bank_accounts * bank_spread in
        let amount = 1 + Rng.int rng 8 in
        let va = Fams.read f a in
        let vb = Fams.read f b in
        Fams.write f a (va - amount);
        Fams.write f b (vb + amount));
  }

(* --- kv: open-addressed hash puts (steady-state updates) --- *)

let kv_slots = 4096 (* [key, value] pairs: 2 words per slot *)
let kv_keys = kv_slots / 2 (* half-full steady state keeps probes short *)

let kv_hash key = (key * 2654435761) land (kv_slots - 1)

let kv =
  {
    name = "fams-kv";
    words = kv_slots * 2;
    setup = (fun _ -> ());
    make_op =
      (fun f ~rng () ->
        let key = 1 + Rng.int rng kv_keys in
        let value = Rng.int rng 1_000_000 in
        let slot = ref (kv_hash key) in
        while
          let k = Fams.read f (!slot * 2) in
          k <> 0 && k <> key
        do
          slot := (!slot + 1) land (kv_slots - 1)
        done;
        Fams.write f (!slot * 2) key;
        Fams.write f ((!slot * 2) + 1) value);
  }

(* --- btree: leaf-clustered sequential appends (wrapping) --- *)

let btree_words = 16384

let btree =
  {
    name = "fams-btree";
    words = btree_words;
    setup = (fun f -> Fams.raw_write f 0 0);
    make_op =
      (fun f ~rng () ->
        let n = Fams.read f 0 in
        let slot = 1 + (n * 2 mod (btree_words - 2)) in
        Fams.write f slot (1 + Rng.int rng 1_000_000);
        Fams.write f (slot + 1) n;
        Fams.write f 0 (n + 1));
  }

let all = [ bank; kv; btree ]

(* --- runner --- *)

type result = {
  driver : Driver.result;
  fams : Fams.Stats.t;
  profile : Pstm.Profile.t;
}

let series_name granularity = "fams-" ^ Fams.granularity_name granularity

(* Operations between two [msync_atomic]s. *)
let sync_every = 32

let run ?(duration_ns = 3_000_000) ~model ~granularity spec =
  let heap_words = Fams.required_heap_words ~words:spec.words in
  let cfg = Memsim.Config.make ~heap_words ~track_media:false model in
  Memsim.Sim.with_ (Memsim.Sim.create cfg) @@ fun sim ->
  let m = Memsim.Sim.machine sim in
  let profiler =
    Pstm.Profile.create ~wpq_stall_probe:(fun tid -> Memsim.Sim.wpq_stall_ns_of sim ~tid) m
  in
  let fams = Fams.create ~granularity ~profiler ~words:spec.words sim in
  spec.setup fams;
  Fams.checkpoint_raw fams;
  Memsim.Sim.reset_timing sim;
  let latency = Repro_util.Histogram.create () in
  let ops = ref 0 in
  let rng = Rng.create Driver.default_seed in
  ignore
    (Memsim.Sim.spawn sim (fun () ->
         let op = spec.make_op fams ~rng in
         let since = ref 0 in
         let rec loop () =
           let start = Memsim.Sim.now sim in
           if start < duration_ns then begin
             op ();
             incr ops;
             incr since;
             if !since >= sync_every then begin
               Fams.msync_atomic fams;
               since := 0
             end;
             Repro_util.Histogram.record latency (Memsim.Sim.now sim - start);
             loop ()
           end
         in
         loop ()));
  Memsim.Sim.run sim;
  let elapsed_ns = max (Memsim.Sim.now sim) 1 in
  let st = Fams.stats fams in
  let driver =
    {
      Driver.workload = spec.name;
      model = model.Memsim.Config.model_name;
      algorithm = series_name granularity;
      threads = 1;
      elapsed_ns;
      commits = !ops;
      aborts = 0;
      txs_per_sec = float_of_int !ops /. (float_of_int elapsed_ns *. 1e-9);
      commits_per_abort = infinity;
      max_log_lines =
        (st.Fams.Stats.max_journal_words + Layout.words_per_line - 1) / Layout.words_per_line;
      latency;
      sim = Memsim.Sim.Stats.get sim;
      telemetry = None;
    }
  in
  { driver; fams = st; profile = profiler }
