type severity = Info | Warning | Corruption

type finding = { severity : severity; what : string }

type report = {
  findings : finding list;
  live_blocks : int;
  free_blocks : int;
  leaked_arenas : int;
  live_words : int;
}

let severity_name = function
  | Info -> "info"
  | Warning -> "warning"
  | Corruption -> "CORRUPTION"

(* A client of the format owners: each reader's rejection becomes a
   Corruption finding, so an image recovery refuses never checks
   clean. *)
let run region =
  let findings = ref [] in
  let add severity what = findings := { severity; what } :: !findings in
  let decoded f = try f () with Machine.Corrupt_image what -> add Corruption what in
  let live = ref 0 and free = ref 0 and leaked = ref 0 and live_words = ref 0 in
  let data_start = Region.data_start region in
  let data_end = Region.data_end region in
  (* Root slots must be 0 or point into the data area. *)
  for i = 0 to Region.roots region - 1 do
    let r = Region.root_get region i in
    if r <> 0 && (r < data_start || r >= data_end) then
      add Corruption (Printf.sprintf "root %d points outside the data area (%d)" i r)
  done;
  for tid = 0 to Region.max_threads region - 1 do
    decoded (fun () ->
        let status = Log.status region ~tid in
        if status <> Log.idle then begin
          add Info (Printf.sprintf "log %d active (status %d): crash recovery pending" tid status);
          Log.fold region ~tid (fun () _ _ -> ()) ()
        end)
  done;
  if Region.snapshot_words region > 0 then
    decoded (fun () ->
        let area = Snapshot.decode region in
        let read = (Region.machine region).Machine.raw_read in
        Option.iter
          (fun n ->
            add Info (Printf.sprintf "snapshot journal of %d entries committed: recovery pending" n);
            Snapshot.iter region area ~read n (fun _ _ -> ()))
          (Snapshot.committed region area));
  decoded (fun () ->
      Alloc.walk region (function
        | Alloc.Block { words; allocated = true; _ } ->
          incr live;
          live_words := !live_words + words
        | Block { allocated = false; _ } -> incr free
        | Leak what ->
          incr leaked;
          Option.iter (add Warning) what
        | Garbage what -> add Warning what
        | Corrupt what -> add Corruption what));
  {
    findings = List.rev !findings;
    live_blocks = !live;
    free_blocks = !free;
    leaked_arenas = !leaked;
    live_words = !live_words;
  }

let is_clean r = List.for_all (fun f -> f.severity <> Corruption) r.findings

let pp ppf r =
  Format.fprintf ppf "region check: %d live, %d free, %d leaked arenas, %d live words@."
    r.live_blocks r.free_blocks r.leaked_arenas r.live_words;
  List.iter
    (fun f -> Format.fprintf ppf "  [%s] %s@." (severity_name f.severity) f.what)
    r.findings;
  if is_clean r then Format.fprintf ppf "  no corruption found@."
