(* Ring-buffered time series of machine/runtime state, sampled at a
   fixed virtual-time cadence by a monitor thread.  All fields are
   integers read from deterministic counters, so a series is
   bit-deterministic across repeated runs. *)

module Sim = Memsim.Sim

type sample = {
  at_ns : int;
  debt : Sim.Debt.t;
  commits : int;
  aborts : int;
  d_commits : int;
  d_aborts : int;
  loads : int;
  stores : int;
  clwbs : int;
  sfences : int;
  writebacks : int;
  fence_wait_ns : int;
  wpq_stall_ns : int;
  nvm_reads : int;
}

let zero_sample =
  {
    at_ns = 0;
    debt = Sim.Debt.zero;
    commits = 0;
    aborts = 0;
    d_commits = 0;
    d_aborts = 0;
    loads = 0;
    stores = 0;
    clwbs = 0;
    sfences = 0;
    writebacks = 0;
    fence_wait_ns = 0;
    wpq_stall_ns = 0;
    nvm_reads = 0;
  }

type t = {
  ring : sample array;
  capacity : int;
  mutable next : int; (* total samples ever recorded *)
  mutable last_commits : int;
  mutable last_aborts : int;
}

let create ?(capacity = 4096) () =
  let capacity = max 1 capacity in
  { ring = Array.make capacity zero_sample; capacity; next = 0; last_commits = 0; last_aborts = 0 }

let record t sim ptm =
  let st = Sim.Stats.get sim in
  let ps = Pstm.Ptm.Stats.get ptm in
  let s =
    {
      at_ns = Sim.now sim;
      debt = Sim.Debt.sample sim ~armed_log_lines:(fun () -> Pstm.Ptm.armed_log_lines ptm);
      commits = ps.Pstm.Ptm.Stats.commits;
      aborts = ps.Pstm.Ptm.Stats.aborts;
      d_commits = ps.Pstm.Ptm.Stats.commits - t.last_commits;
      d_aborts = ps.Pstm.Ptm.Stats.aborts - t.last_aborts;
      loads = st.Sim.Stats.loads;
      stores = st.Sim.Stats.stores;
      clwbs = st.Sim.Stats.clwbs;
      sfences = st.Sim.Stats.sfences;
      writebacks = st.Sim.Stats.writebacks;
      fence_wait_ns = st.Sim.Stats.fence_wait_ns;
      wpq_stall_ns = st.Sim.Stats.wpq_stall_ns;
      nvm_reads = st.Sim.Stats.nvm_reads;
    }
  in
  t.last_commits <- s.commits;
  t.last_aborts <- s.aborts;
  t.ring.(t.next mod t.capacity) <- s;
  t.next <- t.next + 1

let recorded t = t.next
let dropped t = max 0 (t.next - t.capacity)

let samples t =
  let kept = min t.next t.capacity in
  let first = t.next - kept in
  List.init kept (fun i -> t.ring.((first + i) mod t.capacity))

let csv_header =
  "t_ns,wpq_lines,dirty_l3_lines,dirty_dram_pages,armed_log_lines,commits,aborts,d_commits,d_aborts,loads,stores,clwbs,sfences,writebacks,fence_wait_ns,wpq_stall_ns,nvm_reads"

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun s ->
      let d = s.debt in
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n" s.at_ns
           d.Sim.Debt.wpq_lines d.dirty_l3_lines d.dirty_dram_pages d.armed_log_lines s.commits
           s.aborts s.d_commits s.d_aborts s.loads s.stores s.clwbs s.sfences s.writebacks
           s.fence_wait_ns s.wpq_stall_ns s.nvm_reads))
    (samples t);
  Buffer.contents buf
