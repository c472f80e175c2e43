(* Unified metrics registry: named counters / gauges / histograms with
   labels, one definition feeding three exports (Prometheus text, the
   kvserve `stats` verb, JSONL).

   Determinism contract: exports iterate metrics sorted by (name,
   labels), values render as %d integers or %.6g floats, and empty
   histograms render count 0 with no quantiles — so two registries fed
   the same updates produce byte-identical text. *)

module Histogram = Repro_util.Histogram
module Table = Repro_util.Table

type kind = Counter | Gauge | Hist

type metric = {
  name : string;
  help : string;
  labels : (string * string) list;  (* sorted by label name *)
  kind : kind;
  mutable ival : int;
  hist : Histogram.t;
}

type t = { tbl : (string * (string * string) list, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let find_or_add t ~kind ~help ~labels name =
  let labels = List.sort compare labels in
  let key = (name, labels) in
  match Hashtbl.find_opt t.tbl key with
  | Some m -> m
  | None ->
    let m =
      {
        name;
        help;
        labels;
        kind;
        ival = 0;
        hist = Histogram.create ();
      }
    in
    Hashtbl.add t.tbl key m;
    m

let counter t ?(help = "") ?(labels = []) name = find_or_add t ~kind:Counter ~help ~labels name
let gauge t ?(help = "") ?(labels = []) name = find_or_add t ~kind:Gauge ~help ~labels name
let histogram t ?(help = "") ?(labels = []) name = find_or_add t ~kind:Hist ~help ~labels name

let inc m n = m.ival <- m.ival + n

let set_int m v = m.ival <- v

let observe_hist m h = Histogram.merge_into ~src:h ~dst:m.hist

let value m = float_of_int m.ival
let hist m = m.hist

let metrics t =
  List.sort
    (fun a b ->
      match compare a.name b.name with 0 -> compare a.labels b.labels | c -> c)
    (Hashtbl.fold (fun _ m acc -> m :: acc) t.tbl [])

(* ---------- rendering ---------- *)

let float_str v = if Float.is_finite v then Printf.sprintf "%.6g" v else "0"

let label_str labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (Table.json_escape v)) labels)
    ^ "}"

let quantiles = [ ("0.5", 50.0); ("0.95", 95.0); ("0.99", 99.0) ]

let to_prometheus t =
  let b = Buffer.create 2048 in
  let last_header = ref "" in
  List.iter
    (fun m ->
      if m.name <> !last_header then begin
        last_header := m.name;
        if m.help <> "" then Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" m.name m.help);
        let ty =
          match m.kind with Counter -> "counter" | Gauge -> "gauge" | Hist -> "summary"
        in
        Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" m.name ty)
      end;
      match m.kind with
      | Counter | Gauge ->
        Buffer.add_string b (Printf.sprintf "%s%s %s\n" m.name (label_str m.labels) (string_of_int m.ival))
      | Hist ->
        let n = Histogram.count m.hist in
        if n > 0 then
          List.iter
            (fun (q, p) ->
              Buffer.add_string b
                (Printf.sprintf "%s%s %s\n" m.name
                   (label_str (m.labels @ [ ("quantile", q) ]))
                   (float_str (Histogram.percentile m.hist p))))
            quantiles;
        Buffer.add_string b (Printf.sprintf "%s_count%s %d\n" m.name (label_str m.labels) n);
        if n > 0 then
          Buffer.add_string b
            (Printf.sprintf "%s_max%s %d\n" m.name (label_str m.labels)
               (Histogram.max_value m.hist)))
    (metrics t);
  Buffer.contents b

(* memcached `stats` pairs: flat token names (no spaces, no braces) —
   label values joined with '.', histogram statistics suffixed. *)
let stats_pairs t =
  let flat m suffix =
    String.concat "." ((m.name :: List.map snd m.labels) @ suffix)
  in
  List.concat_map
    (fun m ->
      match m.kind with
      | Counter | Gauge -> [ (flat m [], string_of_int m.ival) ]
      | Hist ->
        let n = Histogram.count m.hist in
        if n = 0 then [ (flat m [ "count" ], "0") ]
        else
          (flat m [ "count" ], string_of_int n)
          :: List.map
               (fun (label, p) ->
                 (flat m [ label ], float_str (Histogram.percentile m.hist p)))
               [ ("p50", 50.0); ("p95", 95.0); ("p99", 99.0) ]
          @ [ (flat m [ "max" ], string_of_int (Histogram.max_value m.hist)) ])
    (metrics t)

let jsonl t =
  let b = Buffer.create 2048 in
  List.iter
    (fun m ->
      let labels =
        if m.labels = [] then ""
        else
          Printf.sprintf ",\"labels\":{%s}"
            (String.concat ","
               (List.map
                  (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" k (Table.json_escape v))
                  m.labels))
      in
      (match m.kind with
      | Counter | Gauge ->
        Buffer.add_string b
          (Printf.sprintf "{\"kind\":\"metric\",\"name\":\"%s\"%s,\"value\":%s}\n" m.name labels
             (string_of_int m.ival))
      | Hist ->
        let n = Histogram.count m.hist in
        if n = 0 then
          Buffer.add_string b
            (Printf.sprintf "{\"kind\":\"metric\",\"name\":\"%s\"%s,\"count\":0}\n" m.name labels)
        else
          Buffer.add_string b
            (Printf.sprintf
               "{\"kind\":\"metric\",\"name\":\"%s\"%s,\"count\":%d,\"p50\":%s,\"p95\":%s,\"p99\":%s,\"max\":%d}\n"
               m.name labels n
               (float_str (Histogram.percentile m.hist 50.0))
               (float_str (Histogram.percentile m.hist 95.0))
               (float_str (Histogram.percentile m.hist 99.0))
               (Histogram.max_value m.hist))))
    (metrics t);
  Buffer.contents b

(* ---------- standard publishers ---------- *)

let publish_ptm_stats t ?(labels = []) (s : Pstm.Ptm.Stats.t) =
  let g name help v = set_int (gauge t ~help ~labels ("ptm_" ^ name)) v in
  g "commits" "transactions committed" s.Pstm.Ptm.Stats.commits;
  g "aborts" "transaction attempts aborted" s.Pstm.Ptm.Stats.aborts;
  g "read_only_commits" "read-only commits" s.Pstm.Ptm.Stats.read_only_commits;
  g "max_write_set" "largest write set (words)" s.Pstm.Ptm.Stats.max_write_set;
  g "max_log_lines" "largest persistent log footprint (lines)" s.Pstm.Ptm.Stats.max_log_lines
