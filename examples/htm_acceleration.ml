(* The paper's closing question (§V): "whether hardware transactional
   memory is a viable strategy for accelerating PTM ... [TSX] might
   work with eADR and PDRAM."

     dune exec examples/htm_acceleration.exe

   Runs TATP under the two flush-free durability domains with the
   software paths (redo / undo) and the TSX-style hardware mode, and
   prints the machine evidence: HTM issues no flushes at all, commits
   its write set as one indivisible publish, and falls back to the STM
   only on capacity or repeated conflict. *)

open Core

let () =
  let table =
    Table.create ~title:"TATP: HTM vs software PTM (M tx/s by thread count)"
      ~header:[ "model"; "algorithm"; "1"; "4"; "16"; "32" ]
  in
  List.iter
    (fun (model : Config.model) ->
      List.iter
        (fun algorithm ->
          let cells =
            List.map
              (fun threads ->
                let r =
                  Driver.run_cell
                    (Driver.cell ~duration_ns:1_500_000 ~model ~algorithm ~threads Tatp.spec)
                in
                Table.cell_f (r.Driver.txs_per_sec /. 1e6))
              [ 1; 4; 16; 32 ]
          in
          Table.add_row table
            (model.Config.model_name :: Ptm.algorithm_name algorithm :: cells))
        [ Ptm.Redo; Ptm.Undo; Ptm.Htm ])
    [ Config.optane_eadr; Config.pdram ];
  Format.printf "%a" Table.print table;
  (* And the reason ADR cannot play: clwb aborts a TSX transaction. *)
  let sim, m = simulated_machine ~model:Config.optane_adr () in
  ignore sim;
  (match Ptm.create ~algorithm:Ptm.Htm m with
  | _ -> Format.printf "unexpected: HTM accepted under ADR@."
  | exception Invalid_argument msg -> Format.printf "ADR rejected as expected: %s@." msg);
  Format.printf
    "HTM wins because commits publish the write set in one indivisible step —@.";
  Format.printf
    "no logging, no clwb, no sfence — and capacity/conflict cases fall back to redo.@."
