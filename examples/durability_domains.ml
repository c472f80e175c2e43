(* The paper's central comparison in miniature: one workload (TATP),
   every durability domain, side by side.

     dune exec examples/durability_domains.exe

   Prints throughput plus the machine-level counters that explain the
   differences (fence waits, WPQ stalls, NVM reads). *)

open Core

let () =
  let table =
    Table.create ~title:"TATP, 8 threads, redo logging, by durability domain"
      ~header:
        [ "model"; "M tx/s"; "clwbs"; "sfences"; "fence wait (us)"; "WPQ stall (us)"; "NVM reads" ]
  in
  List.iter
    (fun model ->
      let r =
        Driver.run_cell
          (Driver.cell ~duration_ns:2_000_000 ~model ~algorithm:Ptm.Redo ~threads:8 Tatp.spec)
      in
      let s = r.Driver.sim in
      Table.add_row table
        [
          r.Driver.model;
          Table.cell_f (r.Driver.txs_per_sec /. 1e6);
          string_of_int s.Sim.Stats.clwbs;
          string_of_int s.Sim.Stats.sfences;
          Table.cell_f (float_of_int s.Sim.Stats.fence_wait_ns /. 1e3);
          Table.cell_f (float_of_int s.Sim.Stats.wpq_stall_ns /. 1e3);
          string_of_int s.Sim.Stats.nvm_reads;
        ])
    [
      Config.dram_adr;
      Config.dram_eadr;
      Config.optane_adr;
      Config.optane_adr_nofence;
      Config.optane_eadr;
      Config.pdram;
      Config.pdram_lite;
    ];
  Format.printf "%a" Table.print table;
  Format.printf
    "Reading guide: ADR pays for clwb+sfence (fence wait, WPQ stalls); eADR removes them@.";
  Format.printf
    "but still writes back to Optane on eviction; PDRAM hides Optane behind persistent DRAM.@."
