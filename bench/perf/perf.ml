(* Benchmark entry point.

     perf.exe --workload W --seed N --seconds S --trace 0|1
         one workload in this process; the last stdout line is the
         result object (end-to-end metrics with --trace 0, per-layer
         metrics with --trace 1)
     perf.exe all [--seed N]
         every workload in a fresh child process, 9 reps each plus the
         traced reps; prints every metric and writes out/perf-<seed>.json
     perf.exe compare A.json B.json
         judge B against A with BENCHMARK.json's directions and bounds
     perf.exe smoke
         quick runs of every workload, checked against BENCHMARK.json

   Common options: --spec FILE (default BENCHMARK.json), --out-dir DIR
   (default bench/perf/out; also holds the crash engine's scratch
   images). *)

open Perfbench
module Json = Workloads.Bench_json

(* ---------- statistics ---------- *)

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the "exclusive" method), so spreads match an external check. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n < 2 then (Suite.median xs, Suite.median xs)
  else begin
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)
  end

type summary = { unit_ : string; median : float; q1 : float; q3 : float; n : int }

let summarize unit_ xs =
  let q1, q3 = quartiles xs in
  { unit_; median = Suite.median xs; q1; q3; n = List.length xs }

(* ---------- JSON output ---------- *)

(* A decimal that reads back as the same float: every digit of the
   measurement, nothing invented.  JSON has no NaN or infinity; such a
   value prints as null, and its result line reads correct=false. *)
let num v =
  if not (Float.is_finite v) then "null"
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}"

let metric_json ~detail s =
  obj
    ([ ("value", num s.median); ("unit", Printf.sprintf "%S" s.unit_) ]
    @ if detail then [ ("q1", num s.q1); ("q3", num s.q3); ("n", string_of_int s.n) ] else [])

let result_json ~detail ~correct ~attempted ~failed metrics =
  obj
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ("metrics", obj (List.map (fun (name, s) -> (name, metric_json ~detail s)) metrics));
    ]

let print_table rows =
  Printf.printf "  %-40s %-6s %14s %14s %14s %4s\n" "metric" "unit" "median" "q1" "q3" "n";
  List.iter
    (fun (name, s) ->
      Printf.printf "  %-40s %-6s %14.6g %14.6g %14.6g %4d\n" name s.unit_ s.median s.q1 s.q3 s.n)
    rows

(* ---------- JSON input ---------- *)

let member k = function
  | Json.Obj fields -> ( try List.assoc k fields with Not_found -> Json.Null)
  | _ -> Json.Null

let to_list = function Json.List l -> l | _ -> []
let to_str = function Json.String s -> s | _ -> ""
let to_num = function Json.Int i -> float_of_int i | Json.Float f -> f | _ -> nan

type spec_metric = { s_name : string; s_unit : string; better : string; bound : float }

let read_spec path =
  let j = Json.parse_file path in
  let metrics key =
    List.map
      (fun m ->
        {
          s_name = to_str (member "name" m);
          s_unit = to_str (member "unit" m);
          better = to_str (member "better" m);
          bound = to_num (member "bound" m);
        })
      (to_list (member key j))
  in
  (metrics "end_to_end", metrics "per_layer")

(* ---------- one workload ---------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let run_one ~workload ~seed ~quick ~min_reps ~seconds ~trace ~detail =
  let w =
    match List.find_opt (fun w -> w.Suite.name = workload) (Suite.workloads ~quick ~seed) with
    | Some w -> w
    | None ->
      prerr_endline ("perf: unknown workload " ^ workload);
      exit 2
  in
  let r = Suite.run ~trace ~min_reps ~seconds w in
  let catalogue =
    (if detail || not trace then Suite.end_to_end else [])
    @ if detail || trace then Suite.per_layer else []
  in
  let rows =
    List.map
      (fun (name, unit_) ->
        let xs = try List.assoc name r.Suite.values with Not_found -> [ 0.0 ] in
        (name, summarize unit_ xs))
      catalogue
  in
  let finite = List.for_all (fun (_, s) -> Float.is_finite s.median) rows in
  Printf.printf "%s (seed %d): %d attempted, %d failed\n" workload seed r.Suite.attempted
    r.Suite.failed;
  print_table rows;
  print_endline
    (result_json ~detail
       ~correct:(finite && r.Suite.failed = 0)
       ~attempted:r.Suite.attempted ~failed:r.Suite.failed rows)

(* ---------- child processes ---------- *)

let workload_names = List.map (fun w -> w.Suite.name) (Suite.workloads ~quick:true ~seed:1)

(* Run [perf.exe args] to completion; its last stdout line, parsed. *)
let child args =
  let argv = Array.of_list (Sys.executable_name :: args) in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> acc
  in
  let out = lines [] in
  match (Unix.close_process_in ic, out) with
  | Unix.WEXITED 0, last :: _ -> Json.parse last
  | _ ->
    prerr_endline ("perf: child failed: " ^ String.concat " " args);
    List.iter prerr_endline (List.rev out);
    exit 1

let summary_of_json j =
  {
    unit_ = to_str (member "unit" j);
    median = to_num (member "value" j);
    q1 = to_num (member "q1" j);
    q3 = to_num (member "q3" j);
    n = int_of_float (to_num (member "n" j));
  }

let metrics_of r = match member "metrics" r with Json.Obj fields -> fields | _ -> []

let all ~seed ~out_dir =
  let common = [ "--seed"; string_of_int seed; "--out-dir"; out_dir; "--reps"; "9" ] in
  let ok = ref true in
  let results =
    List.map
      (fun name ->
        let r =
          child ([ "--workload"; name; "--trace"; "1"; "--detail" ] @ common)
        in
        let attempted = to_num (member "attempted" r) and failed = to_num (member "failed" r) in
        if member "correct" r <> Json.Bool true then ok := false;
        Printf.printf "\n%s: %.0f attempted, %.0f failed, error_rate %g\n" name attempted failed
          (failed /. attempted);
        print_table (List.map (fun (k, v) -> (k, summary_of_json v)) (metrics_of r));
        (name, r))
      workload_names
  in
  mkdir_p out_dir;
  let path = Filename.concat out_dir (Printf.sprintf "perf-%d.json" seed) in
  let oc = open_out path in
  output_string oc
    (obj
       [
         ("seed", string_of_int seed);
         ( "workloads",
           "["
           ^ String.concat ","
               (List.map
                  (fun (name, r) ->
                    obj
                      [
                        ("name", Printf.sprintf "%S" name);
                        ("correct", string_of_bool (member "correct" r = Json.Bool true));
                        ("attempted", num (to_num (member "attempted" r)));
                        ("failed", num (to_num (member "failed" r)));
                        ( "metrics",
                          obj
                            (List.map
                               (fun (k, v) -> (k, metric_json ~detail:true (summary_of_json v)))
                               (metrics_of r)) );
                      ])
                  results)
           ^ "]" );
       ]);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" path;
  if not !ok then exit 1

(* ---------- compare ---------- *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* B against A: worse or better when the medians differ by more than
   the bound; unresolved when either side's q1-q3 spread is wider than
   the bound, unless B is beyond A's whole range in the good
   direction. *)
let judge (m : spec_metric) a b =
  let spread s = if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.median in
  let lower = m.better = "lower" in
  let change = if a.median = 0.0 then 0.0 else (b.median -. a.median) /. Float.abs a.median in
  let gain = if lower then -.change else change in
  let clearly_better = if lower then b.q3 < a.q1 else b.q1 > a.q3 in
  if Float.max (spread a) (spread b) > m.bound && not clearly_better then Unresolved
  else if gain < -.m.bound then Worse
  else if gain > m.bound then Better
  else Same

(* Virtual metrics are deterministic for a seed, so between two files of
   the same seed any change in them counts: their bound drops to 0.
   BENCHMARK.json's bound for them only absorbs the spread across
   seeds. *)
let is_virtual (m : spec_metric) = String.starts_with ~prefix:"virt_" m.s_name

let compare_files ~spec a_path b_path =
  let e2e, _ = read_spec spec in
  let a_json = Json.parse_file a_path and b_json = Json.parse_file b_path in
  let same_seed = member "seed" a_json = member "seed" b_json in
  let workloads j =
    List.map (fun w -> (to_str (member "name" w), metrics_of w)) (to_list (member "workloads" j))
  in
  let a = workloads a_json and b = workloads b_json in
  let worse = ref 0 in
  Printf.printf "%-16s %-16s %14s %14s %9s  %s\n" "workload" "metric" "A median" "B median" "change"
    "verdict";
  List.iter
    (fun (wname, am) ->
      match List.assoc_opt wname b with
      | None ->
        Printf.printf "%-16s missing from %s\n" wname b_path;
        incr worse
      | Some bm ->
        List.iter
          (fun m ->
            match (List.assoc_opt m.s_name am, List.assoc_opt m.s_name bm) with
            | Some ja, Some jb ->
              let sa = summary_of_json ja and sb = summary_of_json jb in
              let m = if same_seed && is_virtual m then { m with bound = 0.0 } else m in
              let v = judge m sa sb in
              if v = Worse then incr worse;
              Printf.printf "%-16s %-16s %14.6g %14.6g %+8.2f%%  %s\n" wname m.s_name sa.median
                sb.median
                (if sa.median = 0.0 then 0.0 else 100.0 *. (sb.median -. sa.median) /. sa.median)
                (verdict_name v)
            | _ ->
              Printf.printf "%-16s %-16s missing\n" wname m.s_name;
              incr worse)
          e2e)
    a;
  if !worse > 0 then exit 1

(* ---------- smoke ---------- *)

(* Quick runs of every workload in both trace modes: each run must
   print exactly the metrics BENCHMARK.json names for that mode, with
   the declared units, and fail nothing.  Where the Machine.t ledger
   ran, the calibrated crossing cost must be positive and no layer's
   self time may go negative once it is subtracted.  Whether the
   calibration explains the whole tracing overhead is not checked here:
   a quick rep's host time varies between reps by far more than the
   overhead's unexplained part. *)
let smoke ~spec ~out_dir =
  let e2e, layers = read_spec spec in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun w ->
      List.iter
        (fun (trace, declared) ->
          let declared = List.map (fun m -> (m.s_name, m.s_unit)) declared in
          let r =
            child
              [ "--workload"; w; "--seed"; "1"; "--seconds"; "0"; "--trace"; trace; "--quick";
                "--out-dir"; out_dir ]
          in
          let ms = metrics_of r in
          let printed = List.map (fun (k, v) -> (k, to_str (member "unit" v))) ms in
          List.iter
            (fun (k, u) ->
              if not (List.mem (k, u) printed) then
                problem "%s --trace %s: %s [%s] not printed" w trace k u)
            declared;
          List.iter
            (fun (k, u) ->
              if not (List.mem (k, u) declared) then
                problem "%s --trace %s: %s [%s] not named in %s" w trace k u spec)
            printed;
          if member "correct" r <> Json.Bool true || to_num (member "failed" r) <> 0.0 then
            problem "%s --trace %s: not correct (%s failed)" w trace
              (num (to_num (member "failed" r)));
          let v k =
            match List.assoc_opt k ms with Some j -> to_num (member "value" j) | None -> 0.0
          in
          if trace = "1" && v "op.calls" > 0.0 then begin
            if not (v "trace.clock_ns" > 0.0) then
              problem "%s: trace.clock_ns = %g, not a measured cost" w (v "trace.clock_ns");
            List.iter
              (fun (k, j) ->
                if String.ends_with ~suffix:".self_s" k && to_num (member "value" j) < 0.0 then
                  problem "%s: %s < 0: the calibrated clock cost exceeds the layer's time" w k)
              ms
          end)
        [ ("0", e2e); ("1", layers) ];
      Printf.printf "smoke %s: checked\n%!" w)
    workload_names;
  match !problems with
  | [] -> print_endline "smoke: every workload prints exactly the metrics BENCHMARK.json names"
  | ps ->
    List.iter prerr_endline (List.rev ps);
    exit 1

(* ---------- command line ---------- *)

let usage () =
  prerr_endline
    "usage: perf.exe --workload W --seed N --seconds S --trace 0|1 [--quick]\n\
    \       perf.exe all [--seed N]\n\
    \       perf.exe compare A.json B.json\n\
    \       perf.exe smoke\n\
     options: --spec FILE  --out-dir DIR";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | ("--quick" | "--detail") as f :: rest -> opts ((f, "1") :: acc) rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | x :: rest ->
      let acc, pos = opts acc rest in
      (acc, x :: pos)
    | [] -> (acc, [])
  in
  let kv, positional = opts [] args in
  let get k default = Option.value (List.assoc_opt k kv) ~default in
  let int_opt k default =
    match int_of_string_opt (get k (string_of_int default)) with Some n -> n | None -> usage ()
  in
  let flag k = List.mem_assoc k kv in
  let spec = get "--spec" "BENCHMARK.json" in
  let out_dir = get "--out-dir" "bench/perf/out" in
  (* The crash engine writes its prepared images to the temp dir: keep
     them inside the benchmark's own output directory. *)
  let tmp = Filename.concat out_dir "tmp" in
  mkdir_p tmp;
  Filename.set_temp_dir_name tmp;
  let seed = int_opt "--seed" 1 in
  let quick = flag "--quick" in
  match positional with
  | [] when List.mem_assoc "--workload" kv ->
    let trace =
      match get "--trace" "0" with "0" -> false | "1" -> true | _ -> usage ()
    in
    let seconds =
      match float_of_string_opt (get "--seconds" "0") with Some s -> s | None -> usage ()
    in
    run_one ~workload:(get "--workload" "") ~seed ~quick
      ~min_reps:(int_opt "--reps" (if quick then 1 else 3))
      ~seconds ~trace ~detail:(flag "--detail")
  | [ "all" ] -> all ~seed ~out_dir
  | [ "compare"; a; b ] -> compare_files ~spec a b
  | [ "smoke" ] -> smoke ~spec ~out_dir
  | _ -> usage ()
