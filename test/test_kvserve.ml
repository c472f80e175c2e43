(* The KV service: codec fuzz (every-byte-boundary splits, malformed
   frames that must never raise), router and store semantics, and
   service-level determinism plus crash-recovery oracles. *)

module P = Kvserve.Protocol
module Router = Kvserve.Router
module Store = Kvserve.Store
module Service = Kvserve.Service
module Client = Kvserve.Client
module Config = Memsim.Config
module Ptm = Pstm.Ptm
module Rng = Repro_util.Rng

let parse_all bytes =
  let p = P.parser_create () in
  P.feed p bytes;
  P.drain p

let item_str = function
  | P.Request r -> "req:" ^ P.render_request r
  | P.Protocol_error e -> "err:" ^ e

let items_str items = String.concat "|" (List.map item_str items)

(* ---------- codec: request round-trip ---------- *)

let sample_requests =
  [
    P.Get [ "alpha" ];
    P.Get [ "a"; "b"; "c" ];
    P.Set { key = "k1"; flags = 7; data = "hello" };
    (* Length-prefixed payloads may contain anything, CRLF included. *)
    P.Set { key = "k2"; flags = 0; data = "bin\r\nary \x01 bytes" };
    P.Set { key = "k3"; flags = 42; data = "" };
    (* Larger than the parser's initial buffer: grows and compacts it. *)
    P.Set { key = "k4"; flags = 1; data = String.init 3000 (fun i -> Char.chr (32 + (i mod 90))) };
    P.Delete "gone";
    P.Incr { key = "c01"; delta = 9 };
  ]

let test_roundtrip () =
  let stream = String.concat "" (List.map P.render_request sample_requests) in
  let items = parse_all stream in
  Helpers.check_int "all requests parsed" (List.length sample_requests) (List.length items);
  List.iter2
    (fun want got ->
      match got with
      | P.Request r ->
        Alcotest.(check string)
          "round-trips" (P.render_request want) (P.render_request r)
      | P.Protocol_error e -> Alcotest.fail ("unexpected protocol error: " ^ e))
    sample_requests items;
  (* A payload writer that disagrees with the declared length would
     tear the frame; the request writer refuses it. *)
  Alcotest.check_raises "short payload"
    (Invalid_argument "Protocol.write_set: payload length differs from nbytes") (fun () ->
      P.write_set (Buffer.create 16) ~key:"k" ~flags:0 ~nbytes:3 (fun b ->
          Buffer.add_string b "ab"))

(* ---------- codec: reply writer ---------- *)

(* The counting pass sizes the sink exactly; the replayed writes give
   the memcached reply grammar byte for byte. *)
let test_reply_writer () =
  let write sk =
    P.put_value sk ~key:"k1" ~flags:7 "hi\r\n";
    P.put_value sk ~key:"k2" ~flags:0 "";
    P.put_end sk;
    P.put_stored sk;
    P.put_deleted sk;
    P.put_not_found sk;
    P.put_number sk 0;
    P.put_number sk 1_234_567_890;
    P.put_not_numeric sk;
    P.put_stats sk [ ("curr_items", "42"); ("evictions", "0") ];
    P.put_raw sk "ERROR\r\n"
  in
  let sk = P.sink_create () in
  write sk;
  P.sink_alloc sk;
  write sk;
  Alcotest.(check string)
    "reply bytes"
    ("VALUE k1 7 4\r\nhi\r\n\r\nVALUE k2 0 0\r\n\r\nEND\r\nSTORED\r\nDELETED\r\nNOT_FOUND\r\n"
   ^ "0\r\n1234567890\r\nCLIENT_ERROR cannot increment or decrement non-numeric value\r\n"
   ^ "STAT curr_items 42\r\nSTAT evictions 0\r\nEND\r\nERROR\r\n")
    (P.sink_contents sk);
  let empty = P.sink_create () in
  P.sink_alloc empty;
  Alcotest.(check string) "no replies" "" (P.sink_contents empty)

(* ---------- codec: split at every byte boundary ---------- *)

(* The satellite's core property: an incremental parser must produce
   the same item sequence no matter where the stream is torn. *)
let test_every_split () =
  let stream = String.concat "" (List.map P.render_request sample_requests) in
  let reference = items_str (parse_all stream) in
  let n = String.length stream in
  for cut = 1 to n - 1 do
    let p = P.parser_create () in
    P.feed p (String.sub stream 0 cut);
    let before = P.drain p in
    P.feed p (String.sub stream cut (n - cut));
    let items = before @ P.drain p in
    if not (String.equal reference (items_str items)) then
      Alcotest.failf "split at byte %d/%d diverges" cut n
  done;
  (* Worst case: one byte per feed. *)
  let p = P.parser_create () in
  let trickled = ref [] in
  String.iter
    (fun c ->
      P.feed p (String.make 1 c);
      List.iter (fun it -> trickled := it :: !trickled) (P.drain p))
    stream;
  Alcotest.(check string) "byte-at-a-time" reference (items_str (List.rev !trickled));
  Helpers.check_int "parser quiescent" 0 (P.buffered p)

(* ---------- codec: malformed frames ---------- *)

let expect_error input =
  match parse_all input with
  | [ P.Protocol_error e ] ->
    Helpers.check_bool
      (Printf.sprintf "%S yields an error reply" input)
      true
      (String.length e > 2 && String.sub e (String.length e - 2) 2 = "\r\n")
  | items ->
    Alcotest.failf "%S: expected one protocol error, got %d item(s): %s" input
      (List.length items) (items_str items)

let test_malformed () =
  List.iter expect_error
    [
      "bogus\r\n";
      "\r\n";
      "get\r\n";
      "get bad key\x01\r\n";
      "set k\r\n";
      "set k 0 0 notanum\r\n";
      "set k -1 0 3\r\n";
      "set k 0 0 99999999999999999999\r\n";
      (Printf.sprintf "set %s 0 0 3\r\n" (String.make 300 'k'));
      (Printf.sprintf "set k 0 0 %d\r\n" (P.max_value_bytes + 1));
      "delete\r\n";
      "delete a b\r\n";
      "incr k notanum\r\n";
      "incr k -3\r\n";
      (String.make 5000 'x');
    ];
  (* A torn set payload (missing CRLF terminator) consumes the declared
     bytes and resynchronises. *)
  (match parse_all "set k 0 0 4\r\nabcdXX\r\n" with
  | [ P.Protocol_error _; P.Protocol_error _ ] -> ()
  | items -> Alcotest.failf "torn payload: got %s" (items_str items));
  (* The parser recovers: a valid request after garbage still parses. *)
  match parse_all "garbage line\r\nget ok\r\n" with
  | [ P.Protocol_error _; P.Request (P.Get [ "ok" ]) ] -> ()
  | items -> Alcotest.failf "no resync after garbage: %s" (items_str items)

(* ---------- codec: random-bytes fuzz ---------- *)

(* Whatever arrives — random binary, random chunk boundaries — the
   parser must neither raise nor wedge (items stay drainable, the
   buffer stays bounded by line/body limits). *)
let test_fuzz () =
  let rng = Rng.create 0xF022 in
  let alphabet = "get set delincr 0123456789 \r\n\x00\xff k" in
  for _ = 1 to 200 do
    let p = P.parser_create () in
    let budget = ref 0 in
    for _ = 1 to 40 do
      let len = Rng.int rng 30 in
      let chunk =
        String.init len (fun _ -> alphabet.[Rng.int rng (String.length alphabet)])
      in
      P.feed p chunk;
      budget := !budget + len;
      let items = P.drain p in
      List.iter
        (function
          | P.Protocol_error e ->
            Helpers.check_bool "error replies are CRLF-terminated" true
              (String.length e >= 2 && String.sub e (String.length e - 2) 2 = "\r\n")
          | P.Request _ -> ())
        items
    done;
    Helpers.check_bool "buffer bounded" true (P.buffered p <= !budget)
  done

(* ---------- codec: over-long lines ---------- *)

(* One rule whatever the chunking: a command line longer than the line
   limit yields exactly one [CLIENT_ERROR line too long], and parsing
   resumes after that line's newline. *)
let test_overlong_line () =
  let stream = "get " ^ String.make 5000 'a' ^ "\r\n" ^ "get ok\r\n" in
  let want = "err:CLIENT_ERROR line too long\r\n|req:get ok\r\n" in
  Alcotest.(check string) "one chunk" want (items_str (parse_all stream));
  let n = String.length stream in
  for cut = 1 to n - 1 do
    let p = P.parser_create () in
    P.feed p (String.sub stream 0 cut);
    let before = P.drain p in
    P.feed p (String.sub stream cut (n - cut));
    let got = items_str (before @ P.drain p) in
    if not (String.equal want got) then Alcotest.failf "split at byte %d/%d: %s" cut n got
  done;
  (* Newline-free floods stay bounded: the over-long prefix is dropped
     as soon as it is seen. *)
  let p = P.parser_create () in
  for _ = 1 to 10 do
    P.feed p (String.make 1000 'x');
    ignore (P.drain p)
  done;
  Helpers.check_bool "flood not buffered" true (P.buffered p <= 4096)

(* ---------- codec: differential check against the reference model ---------- *)

(* Seeded random streams — valid requests, repeated separators, bare-LF
   endings, garbage lines, [set]s whose data chunk is short, long or
   unterminated — torn at random points, must give the same item list
   from the in-place parser and from the list-based reference model in
   [Protocol_ref].  Every line stays under the line limit, the one case
   where the two differ on purpose. *)
let test_differential_ref () =
  let rng = Rng.create 0xD1FF in
  let pick a = a.(Rng.int rng (Array.length a)) in
  let key () =
    pick [| "a"; "k000001"; "k000042"; "c01"; "x\ty"; "bad\x01key"; String.make 251 'k' |]
  in
  let data () =
    String.init (Rng.int rng 40) (fun _ -> pick [| 'a'; 'b'; '\r'; '\n'; ' '; '\x00' |])
  in
  let garbage () =
    String.init (Rng.int rng 24) (fun _ ->
        pick [| 'g'; 'e'; 't'; 's'; ' '; ' '; '\r'; '\n'; '0'; '9'; '-'; '\xff'; '\x7f' |])
  in
  let segment () =
    match Rng.int rng 12 with
    | 0 -> P.render_request (P.Get (List.init (1 + Rng.int rng 4) (fun _ -> key ())))
    | 1 -> P.render_request (P.Set { key = key (); flags = Rng.int rng 100; data = data () })
    | 2 -> P.render_request (P.Delete (key ()))
    | 3 -> P.render_request (P.Incr { key = key (); delta = Rng.int rng 1000 })
    | 4 -> P.render_request P.Stats
    | 5 -> "get  " ^ key () ^ "   " ^ key () ^ " \n"
    | 6 ->
      let d = data () in
      let declared = max 0 (String.length d + Rng.int rng 7 - 3) in
      Printf.sprintf "set %s 0 0 %d\r\n%s%s" (key ()) declared d
        (pick [| "\r\n"; ""; "XX"; "\n" |])
    | 7 ->
      Printf.sprintf "incr %s %s\r\n" (key ())
        (pick [| "-1"; "0x10"; ""; "12 3"; "1234567890123456" |])
    | 8 -> pick [| "set k 1 2\r\n"; "delete\r\n"; "stats now\r\n"; "\r\n"; "\n"; "get\r\n" |]
    | 9 -> Printf.sprintf "set k 0 0 %d\r\n" (P.max_value_bytes + Rng.int rng 2)
    | _ -> garbage ()
  in
  for _ = 1 to 400 do
    let stream = String.concat "" (List.init (1 + Rng.int rng 30) (fun _ -> segment ())) in
    let n = String.length stream in
    let fresh = P.parser_create () and model = Protocol_ref.parser_create () in
    let got = ref [] and want = ref [] in
    let pos = ref 0 in
    while !pos < n do
      let len = min (n - !pos) (1 + Rng.int rng (if Rng.bool rng then 4 else 64)) in
      let chunk = String.sub stream !pos len in
      pos := !pos + len;
      P.feed fresh chunk;
      Protocol_ref.feed model chunk;
      got := List.rev_append (P.drain fresh) !got;
      want := List.rev_append (Protocol_ref.drain model) !want
    done;
    if !got <> !want then
      Alcotest.failf "parsers diverge on %S:\n  in-place  %s\n  reference %s" stream
        (items_str (List.rev !got)) (items_str (List.rev !want));
    Helpers.check_int "same bytes left buffered" (Protocol_ref.buffered model) (P.buffered fresh)
  done

(* ---------- router ---------- *)

let test_router () =
  let shards = 5 in
  let counts = Array.make shards 0 in
  for i = 0 to 999 do
    let key = Client.key_of i in
    let s = Router.shard_of_key ~shards key in
    Helpers.check_bool "shard in range" true (s >= 0 && s < shards);
    Helpers.check_int "routing is a pure function" s (Router.shard_of_key ~shards key);
    counts.(s) <- counts.(s) + 1;
    let h = Router.store_hash key in
    Helpers.check_bool "store hash positive" true (h > 0)
  done;
  Array.iteri
    (fun s c -> Helpers.check_bool (Printf.sprintf "shard %d nonempty" s) true (c > 50))
    counts;
  Helpers.check_int "one shard degenerates to 0" 0 (Router.shard_of_key ~shards:1 "anything")

(* ---------- store ---------- *)

let test_store () =
  let _sim, _m, ptm = Helpers.ptm_fixture ~log_words_per_thread:4096 () in
  let store = Store.create ptm ~buckets:64 in
  Ptm.atomic ptm (fun tx ->
      Store.set tx store ~key:"a" ~flags:3 "hello";
      Store.set tx store ~key:"b" ~flags:0 "12");
  Ptm.atomic ptm (fun tx ->
      (match Store.get tx store "a" with
      | Some (3, "hello") -> ()
      | _ -> Alcotest.fail "a not stored");
      Helpers.check_int "items counted" 2 (Store.items tx store));
  (* Overwrite: same length updates in place, new length reallocates. *)
  Ptm.atomic ptm (fun tx -> Store.set tx store ~key:"a" ~flags:9 "world");
  Ptm.atomic ptm (fun tx -> Store.set tx store ~key:"a" ~flags:9 "long-er value");
  Ptm.atomic ptm (fun tx ->
      match Store.get tx store "a" with
      | Some (9, "long-er value") -> ()
      | _ -> Alcotest.fail "overwrite lost");
  (* incr only on decimal values. *)
  Ptm.atomic ptm (fun tx ->
      (match Store.incr tx store "b" 30 with
      | Store.New_value 42 -> ()
      | _ -> Alcotest.fail "incr 12+30");
      (match Store.incr tx store "a" 1 with
      | Store.Not_numeric -> ()
      | _ -> Alcotest.fail "incr on text must refuse");
      match Store.incr tx store "nope" 1 with
      | Store.Missing -> ()
      | _ -> Alcotest.fail "incr on missing key");
  (* delete *)
  Ptm.atomic ptm (fun tx ->
      Helpers.check_bool "delete existing" true (Store.delete tx store "a");
      Helpers.check_bool "delete missing" false (Store.delete tx store "a");
      Helpers.check_int "items after delete" 1 (Store.items tx store));
  (* The batch marker is just a meta word under the same transactions. *)
  Ptm.atomic ptm (fun tx -> Store.set_batch_marker tx store 17);
  Helpers.check_int "marker round-trips" 17
    (Ptm.atomic ptm (fun tx -> Store.batch_marker tx store));
  (* attach sees the same state. *)
  let store' = Store.attach ptm in
  Ptm.atomic ptm (fun tx ->
      match Store.get tx store' "b" with
      | Some (0, "42") -> ()
      | _ -> Alcotest.fail "attach lost data")

(* ---------- service fixtures ---------- *)

let small_config ?(model = Config.optane_adr) () =
  {
    (Service.default_config model) with
    Service.shards = 2;
    prepopulate_items = 64;
    buckets_per_shard = 256;
    heap_words_per_shard = 1 lsl 17;
  }

let small_fleet () =
  Client.generate ~seed:0xBEEF ~conns:3 ~requests_per_conn:25 ~items:64 ~value_bytes:32
    ~set_ratio:0.3 ~delete_ratio:0.05 ~incr_ratio:0.1 ~mean_gap_ns:1_500 ~theta:0.9 ()

(* Count reply frames in a connection's response stream.  VALUE blocks
   are length-prefixed (payloads may contain CRLF); END closes a get
   frame; every other reply is a single line. *)
let count_reply_frames s =
  let n = String.length s in
  let rec go pos acc =
    if pos >= n then acc
    else
      match String.index_from_opt s pos '\n' with
      | None -> Alcotest.fail "reply stream ends mid-line"
      | Some nl ->
        let line = String.sub s pos (nl - pos - 1) in
        if String.length line >= 6 && String.sub line 0 6 = "VALUE " then
          match String.split_on_char ' ' line with
          | [ _; _; _; bytes ] -> go (nl + 1 + int_of_string bytes + 2) acc
          | _ -> Alcotest.fail ("bad VALUE line: " ^ line)
        else if String.length line >= 5 && String.sub line 0 5 = "STAT " then
          (* stats body line — the frame is counted at its END *)
          go (nl + 1) acc
        else go (nl + 1) (acc + 1)
  in
  go 0 0

let requests_per_conn (fleet : Client.t) =
  let counts = Array.make fleet.Client.conns 0 in
  let parsers = Array.init fleet.Client.conns (fun _ -> P.parser_create ()) in
  List.iter
    (fun { Client.conn; bytes; _ } ->
      P.feed parsers.(conn) bytes;
      counts.(conn) <- counts.(conn) + List.length (P.drain parsers.(conn)))
    fleet.Client.chunks;
  counts

let fingerprint cfg (r : Service.result) =
  Service.metrics_jsonl cfg r ^ String.concat "\x00" (Array.to_list r.Service.replies)

(* ---------- service: determinism ---------- *)

let test_service_deterministic () =
  let cfg = small_config () in
  let fleet = small_fleet () in
  let a = Service.run ~jobs:1 cfg fleet in
  let b = Service.run ~jobs:1 cfg fleet in
  let c = Service.run ~jobs:2 cfg fleet in
  Alcotest.(check string) "repeat run byte-identical" (fingerprint cfg a) (fingerprint cfg b);
  Alcotest.(check string) "jobs=2 byte-identical" (fingerprint cfg a) (fingerprint cfg c);
  Helpers.check_bool "no crash" false a.Service.crashed;
  Helpers.check_int "no recovery records" 0 (List.length a.Service.recoveries);
  (* Every request gets exactly one reply frame, per connection. *)
  let expect = requests_per_conn fleet in
  Array.iteri
    (fun conn stream ->
      Helpers.check_int
        (Printf.sprintf "conn %d reply frames" conn)
        expect.(conn) (count_reply_frames stream))
    a.Service.replies;
  Helpers.check_int "every request answered" fleet.Client.requests a.Service.requests

(* ---------- service: crash + restart recovery ---------- *)

let test_service_crash () =
  let cfg = small_config () in
  let fleet = small_fleet () in
  let a = Service.run ~jobs:1 ~crash_at:15_000 cfg fleet in
  let b = Service.run ~jobs:2 ~crash_at:15_000 cfg fleet in
  Alcotest.(check string) "crash run deterministic across jobs" (fingerprint cfg a)
    (fingerprint cfg b);
  Helpers.check_bool "crash observed" true a.Service.crashed;
  Helpers.check_bool "recovery records present" true (a.Service.recoveries <> []);
  List.iter
    (fun rc ->
      Helpers.check_bool "modeled recovery time positive" true (rc.Service.r_modeled_ns > 0);
      Helpers.check_bool "recovery scanned its log" true (rc.Service.r_words_scanned > 0))
    a.Service.recoveries;
  (* Despite the crash, every request is answered exactly once. *)
  let expect = requests_per_conn fleet in
  Array.iteri
    (fun conn stream ->
      Helpers.check_int
        (Printf.sprintf "conn %d reply frames after crash" conn)
        expect.(conn) (count_reply_frames stream))
    a.Service.replies

(* ---------- service: exactly-once incr oracle ---------- *)

(* A single connection issuing N increments of one counter.  Increments
   are serialised by the owning shard, so the reply sequence must be
   non-decreasing (reconstructed replies for a durable-but-unanswered
   batch repeat the recovered value) and end exactly at N: a lost
   commit would fall short, a double replay would overshoot. *)
let test_incr_exactly_once () =
  let n = 40 in
  let bytes = P.render_request (P.Incr { key = Client.counter_of 0; delta = 1 }) in
  let fleet =
    {
      Client.chunks =
        List.init n (fun i -> { Client.arrival_ns = 2_000 * (i + 1); conn = 0; bytes });
      conns = 1;
      requests = n;
      trace_ids = [||];
    }
  in
  let cfg = small_config () in
  let check label r =
    let stream = r.Service.replies.(0) in
    let numbers =
      List.filter_map int_of_string_opt
        (List.map String.trim (String.split_on_char '\n' stream))
    in
    Helpers.check_int (label ^ ": all incrs answered with numbers") n (List.length numbers);
    let last = List.fold_left (fun _ v -> v) 0 numbers in
    Helpers.check_int (label ^ ": final count exact") n last;
    ignore
      (List.fold_left
         (fun prev v ->
           Helpers.check_bool (label ^ ": counts never regress") true (v >= prev);
           v)
         0 numbers)
  in
  check "clean" (Service.run ~jobs:1 cfg fleet);
  check "crashed" (Service.run ~jobs:1 ~crash_at:40_000 cfg fleet)

(* ---------- service: stats verb ---------- *)

module Trace = Telemetry.Trace

let has_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_stats_verb () =
  let cfg = small_config () in
  let fleet =
    {
      Client.chunks =
        [
          { Client.arrival_ns = 1_000; conn = 0; bytes = P.render_request (P.Get [ "k0" ]) };
          { Client.arrival_ns = 2_000; conn = 0; bytes = P.render_request P.Stats };
        ];
      conns = 1;
      requests = 2;
      trace_ids = [||];
    }
  in
  let r = Service.run ~jobs:1 cfg fleet in
  let stream = r.Service.replies.(0) in
  (* The STAT block is fed from the same registry the JSONL metrics
     use, so the pair values must agree with the result record. *)
  Helpers.check_bool "STAT requests pair" true
    (has_substring stream (Printf.sprintf "STAT kvserve_requests %d\r\n" r.Service.requests));
  Helpers.check_bool "per-shard ptm commits exposed" true
    (has_substring stream "STAT ptm_commits.");
  Helpers.check_bool "END terminator" true (has_substring stream "END\r\n");
  (* Round-trip: the reply must itself survive the codec's framing. *)
  Helpers.check_int "stats + get frames" 2 (count_reply_frames stream)

(* ---------- service: tracing is observation-only ---------- *)

let test_trace_zero_cost () =
  (* Turning tracing on must not move virtual time or change a single
     reply byte: same fleet, same schedule, same metrics. *)
  let fleet = small_fleet () in
  let off = small_config () in
  let on = { off with Service.trace = true } in
  let check_same label a b =
    Alcotest.(check string) label (fingerprint off a) (fingerprint on b)
  in
  check_same "clean run identical" (Service.run ~jobs:1 off fleet)
    (Service.run ~jobs:1 on fleet);
  check_same "crash run identical"
    (Service.run ~jobs:1 ~crash_at:15_000 off fleet)
    (Service.run ~jobs:1 ~crash_at:15_000 on fleet);
  Helpers.check_bool "trace store absent when disabled" true
    ((Service.run ~jobs:1 off fleet).Service.trace = None)

let test_trace_accounting () =
  (* With tracing on, every request's span set must account for its
     whole latency window — exactly, for the single-key generated
     fleet — on every durability domain, clean and crashed. *)
  let fleet = small_fleet () in
  let digests =
    List.map
      (fun (model, crash_at) ->
        let cfg = { (small_config ~model ()) with Service.trace = true } in
        let r = Service.run ~jobs:1 ?crash_at cfg fleet in
        let tr =
          match r.Service.trace with
          | Some tr -> tr
          | None -> Alcotest.fail "tracing enabled but result carries no trace"
        in
        let rows = Trace.accounting tr in
        Helpers.check_int
          (Printf.sprintf "%s: one accounting row per request" r.Service.model)
          fleet.Client.requests (List.length rows);
        List.iter
          (fun (trace, latency, attributed) ->
            if latency <> attributed then
              Alcotest.failf "%s: trace %d attributed %dns of %dns latency" r.Service.model
                trace attributed latency)
          rows;
        (* The p95–100 tail blame attributes exactly its band. *)
        let b = Trace.blame tr ~lo_pct:95.0 ~hi_pct:100.0 in
        Helpers.check_bool
          (Printf.sprintf "%s: tail blame attributes its band" r.Service.model)
          true
          (b.Trace.brequests > 0 && b.Trace.battributed_ns = b.Trace.btotal_latency_ns);
        (* Digests are stable across reruns and pool sizes. *)
        let again = Service.run ~jobs:2 ?crash_at cfg fleet in
        (match again.Service.trace with
        | Some tr2 ->
          Alcotest.(check string)
            (Printf.sprintf "%s: digest stable across jobs" r.Service.model)
            (Trace.digest tr) (Trace.digest tr2)
        | None -> Alcotest.fail "rerun lost its trace");
        ((r.Service.model, crash_at <> None), Trace.digest tr))
      [
        (Config.optane_adr, None); (Config.optane_eadr, None); (Config.dram_adr, None);
        (Config.pdram_lite, None); (Config.optane_adr, Some 15_000);
      ]
  in
  let adr = Config.optane_adr.Config.model_name in
  Helpers.check_bool "a crash changes the span digest" true
    (List.assoc (adr, false) digests <> List.assoc (adr, true) digests)

let test_trace_multiget_overlap () =
  (* A multi-key get fans out to several shards whose spans overlap in
     time, so attributed time may exceed — and never undercuts —
     end-to-end latency. *)
  let cfg = { (small_config ()) with Service.trace = true } in
  let bytes = P.render_request (P.Get [ Client.key_of 1; Client.key_of 2; Client.key_of 3 ]) in
  let fleet =
    {
      Client.chunks = [ { Client.arrival_ns = 1_000; conn = 0; bytes } ];
      conns = 1;
      requests = 1;
      trace_ids = [||];
    }
  in
  let r = Service.run ~jobs:1 cfg fleet in
  match r.Service.trace with
  | None -> Alcotest.fail "no trace"
  | Some tr ->
    (match Trace.accounting tr with
    | [ (_, latency, attributed) ] ->
      Helpers.check_bool "attributed covers latency" true (attributed >= latency);
      Helpers.check_bool "positive latency" true (latency > 0)
    | rows -> Alcotest.failf "expected one row, got %d" (List.length rows))

(* ---------- service: output pinned to the list-based request path ---------- *)

module Histogram = Repro_util.Histogram

(* Three generated connections plus two scripted ones: multi-key gets
   that span every shard, [stats], protocol errors (unknown verbs, bad
   numbers, an unterminated [set] payload) and every request torn at a
   seeded byte. *)
let hostile_fleet () =
  let base =
    Client.generate ~seed:0x5EED ~conns:3 ~requests_per_conn:40 ~items:64 ~value_bytes:24
      ~set_ratio:0.3 ~delete_ratio:0.05 ~incr_ratio:0.1 ~mean_gap_ns:1_200 ~theta:0.9 ()
  in
  let keys = List.init 12 Client.key_of in
  let script =
    [
      P.render_request (P.Get keys);
      P.render_request (P.Set { key = Client.key_of 5; flags = 77; data = "hostile\r\nvalue" });
      "bogus command\r\n";
      P.render_request (P.Get (List.rev keys));
      "set k000001 0 0 4\r\nabcdXX\r\n";
      P.render_request P.Stats;
      P.render_request (P.Incr { key = Client.key_of 3; delta = 2 });
      P.render_request (P.Delete (Client.key_of 7));
      P.render_request (P.Get [ Client.key_of 7; "nokey"; Client.key_of 8; Client.key_of 9 ]);
      "incr c01 -4\r\n";
      "get\r\n";
      P.render_request (P.Incr { key = Client.counter_of 1; delta = 5 });
      "\r\n";
      P.render_request (P.Set { key = Client.key_of 2; flags = 1; data = "" });
      P.render_request (P.Get keys);
    ]
  in
  let rng = Rng.create 0x7EA2 in
  let scripted conn =
    List.concat
      (List.mapi
         (fun i bytes ->
           let arrival_ns = 500 + (i * 3_000) + (conn * 700) in
           let n = String.length bytes in
           if n >= 2 && Rng.bool rng then
             let cut = 1 + Rng.int rng (n - 1) in
             [ { Client.arrival_ns; conn; bytes = String.sub bytes 0 cut };
               { Client.arrival_ns; conn; bytes = String.sub bytes cut (n - cut) } ]
           else [ { Client.arrival_ns; conn; bytes } ])
         script)
  in
  let chunks =
    List.stable_sort
      (fun (a : Client.chunk) (b : Client.chunk) ->
        compare (a.Client.arrival_ns, a.Client.conn) (b.Client.arrival_ns, b.Client.conn))
      (base.Client.chunks @ scripted 3 @ scripted 4)
  in
  { base with Client.chunks; conns = 5; requests = base.Client.requests + (2 * List.length script) }

let pinned_digest cfg (r : Service.result) =
  let hist h =
    Printf.sprintf "%d %d %d %s" (Histogram.count h) (Histogram.max_value h)
      (int_of_float (Histogram.mean h *. float_of_int (Histogram.count h)))
      (String.concat ","
         (List.map
            (fun p -> Printf.sprintf "%.0f" (Histogram.percentile h p))
            [ 1.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 99.9 ]))
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          ([ fingerprint cfg r; hist r.Service.batch_occupancy;
             Printf.sprintf "hits %d misses %d errors %d" r.Service.get_hits r.Service.get_misses
               r.Service.protocol_errors;
             (match r.Service.trace with Some tr -> Trace.digest tr | None -> "no trace") ]
          @ List.map (fun (oc, h) -> Service.opcode_name oc ^ " " ^ hist h) r.Service.latency)))

(* Reply bytes, latency histograms, batch occupancy, shard and recovery
   stats and the trace store of the hostile fleet, at jobs 1 and 2, with
   and without a crash and tracing: the digests were computed with the
   list-based request path (items, sub queues, event lists) that the
   column layout replaced, then re-pinned when [max_log_lines] began
   to count the log's unused word and sentinel (only shard 2's gauge
   and `stats` reply moved, 5 -> 6 lines). *)
let test_pinned_output () =
  let fleet = hostile_fleet () in
  let base = { (small_config ()) with Service.shards = 4 } in
  List.iter
    (fun (trace, crash_at, want) ->
      let cfg = { base with Service.trace } in
      List.iter
        (fun jobs ->
          let r = Service.run ~jobs ?crash_at cfg fleet in
          Helpers.check_bool "crash as configured" (crash_at <> None) r.Service.crashed;
          Alcotest.(check string)
            (Printf.sprintf "trace %b crash %b jobs %d" trace (crash_at <> None) jobs)
            want (pinned_digest cfg r))
        [ 1; 2 ])
    [
      (false, None, "4c358eb5fc2afe605b4e19a2cd427f70");
      (false, Some 30_000, "7b2f18042d595c029b07c940bafbd718");
      (true, None, "399099a995bc0dee9492fdb42cd9f46c");
      (true, Some 30_000, "e3ade366620eed5ff8276c412e7845cc");
    ]

(* The bench-size fleet: [bench/perf]'s kvserve-adr at seed 1. *)
let bench_fleet () =
  Client.generate ~seed:1 ~conns:8 ~requests_per_conn:16_000 ~items:8192 ~value_bytes:64
    ~set_ratio:0.20 ~delete_ratio:0.02 ~incr_ratio:0.05 ~mean_gap_ns:4000 ~theta:0.8 ()

(* The bench-size fleet, digested chunk by chunk: pinned to the fleet
   the global stable sort built. *)
let test_fleet_digest () =
  let fleet = bench_fleet () in
  let ctx = Buffer.create (1 lsl 16) in
  let digests = ref [] in
  let flush () =
    digests := Digest.string (Buffer.contents ctx) :: !digests;
    Buffer.clear ctx
  in
  List.iter
    (fun (c : Client.chunk) ->
      Buffer.add_string ctx (Printf.sprintf "%d %d %d:" c.Client.arrival_ns c.Client.conn
                               (String.length c.Client.bytes));
      Buffer.add_string ctx c.Client.bytes;
      if Buffer.length ctx > 60_000 then flush ())
    fleet.Client.chunks;
  flush ();
  Array.iter
    (fun ids ->
      Buffer.add_string ctx (String.concat "," (Array.to_list (Array.map string_of_int ids))))
    fleet.Client.trace_ids;
  flush ();
  Helpers.check_int "requests" 128_000 fleet.Client.requests;
  Helpers.check_int "chunks" 191_984 (List.length fleet.Client.chunks);
  Alcotest.(check string) "fleet digest" "35d03c7aebfc0a4bafd876d4a2b7efa7"
    (Digest.to_hex (Digest.string (String.concat "" (List.rev !digests))))

(* The generator against the reference it replaced
   ([test/client_ref.ml]): equal chunks, request count and trace ids
   over a seeded matrix of small fleets.  Every ratio is taken at 0 and
   at 1; [value_bytes] falls below the [r<rank>.v<version>.] stamp
   (at least 5 bytes) on even configs and above it on odd ones. *)
let test_client_differential () =
  let rng = Rng.create 0xD1FF in
  let mixes =
    [ (0.0, 0.0, 0.0); (1.0, 0.0, 0.0); (0.0, 1.0, 0.0); (0.0, 0.0, 1.0); (0.2, 0.02, 0.05);
      (0.3, 0.3, 0.3) ]
  in
  List.iter
    (fun (set_ratio, delete_ratio, incr_ratio) ->
      List.iter
        (fun theta ->
          for i = 0 to 15 do
            let seed = Rng.next rng
            and conns = 1 + Rng.int rng 8
            and requests_per_conn = Rng.int rng 61
            and items = 1 + Rng.int rng 64
            and value_bytes = if i mod 2 = 0 then Rng.int rng 5 else 8 + Rng.int rng 120
            and mean_gap_ns = 1 + Rng.int rng 3000 in
            let gen f =
              f ~seed ~conns ~requests_per_conn ~items ~value_bytes ~set_ratio ~delete_ratio
                ~incr_ratio ~mean_gap_ns ~theta ()
            in
            let want : Client.t = gen Client_ref.generate and got = gen Client.generate in
            let config =
              Printf.sprintf "seed %d conns %d rpc %d items %d value_bytes %d mix %g/%g/%g theta %g"
                seed conns requests_per_conn items value_bytes set_ratio delete_ratio incr_ratio
                theta
            in
            Helpers.check_int ("requests, " ^ config) want.Client.requests got.Client.requests;
            Helpers.check_bool ("chunks, " ^ config) true (want.Client.chunks = got.Client.chunks);
            Helpers.check_bool ("trace ids, " ^ config) true
              (want.Client.trace_ids = got.Client.trace_ids)
          done)
        [ 0.0; 0.8; 0.99 ])
    mixes;
  (* The payload writer behind [value_of] (and so the service's
     prepopulation) is the reference's payload too. *)
  List.iter
    (fun (rank, version, value_bytes) ->
      Alcotest.(check string) "value_of"
        (Client_ref.value_of ~rank ~version ~value_bytes)
        (Client.value_of ~rank ~version ~value_bytes))
    [ (0, 0, 0); (7, 3, 6); (8191, 0, 64); (25, 12, 1000); (123456, 7, 300) ]

(* Allocation, counted rather than timed: one bench-size fleet must stay
   within 20 % of the 3.43 M minor words it takes since random draws
   stopped allocating (8.24 M before that, and 14.5 M before the
   single-buffer generator). *)
let test_fleet_allocation () =
  let before = Gc.minor_words () in
  let fleet = Sys.opaque_identity (bench_fleet ()) in
  let words = Gc.minor_words () -. before in
  Helpers.check_int "requests" 128_000 fleet.Client.requests;
  let bound = 1.2 *. 3_427_802. in
  if words > bound then
    Alcotest.failf "bench fleet took %.0f minor words, bound %.0f" words bound

(* Bad sizes fail at the boundary, naming the parameter. *)
let test_client_bad_arguments () =
  let gen ?(conns = 2) ?(requests_per_conn = 3) ?(items = 8) ?(mean_gap_ns = 100) () =
    ignore
      (Client.generate ~seed:1 ~conns ~requests_per_conn ~items ~value_bytes:8 ~set_ratio:0.5
         ~delete_ratio:0.0 ~incr_ratio:0.0 ~mean_gap_ns ~theta:0.8 ())
  in
  let rejects msg f = Alcotest.check_raises msg (Invalid_argument ("Client.generate: " ^ msg)) f in
  rejects "conns = -1" (gen ~conns:(-1));
  rejects "requests_per_conn = -2" (gen ~requests_per_conn:(-2));
  rejects "items = 0" (gen ~items:0);
  rejects "mean_gap_ns = 0" (gen ~mean_gap_ns:0);
  rejects "mean_gap_ns = -5" (gen ~mean_gap_ns:(-5));
  (* Empty but well-formed fleets are fine. *)
  gen ~conns:0 ();
  gen ~requests_per_conn:0 ()

let suite =
  [
    Alcotest.test_case "codec: render/parse round-trip" `Quick test_roundtrip;
    Alcotest.test_case "codec: reply writer sizes then writes" `Quick test_reply_writer;
    Alcotest.test_case "codec: split at every byte boundary" `Quick test_every_split;
    Alcotest.test_case "codec: malformed frames never raise" `Quick test_malformed;
    Alcotest.test_case "codec: random-bytes fuzz" `Quick test_fuzz;
    Alcotest.test_case "codec: over-long line, every split" `Quick test_overlong_line;
    Alcotest.test_case "codec: differential vs list-based reference" `Quick
      test_differential_ref;
    Alcotest.test_case "router: stable, in-range, spread" `Quick test_router;
    Alcotest.test_case "store: set/get/delete/incr semantics" `Quick test_store;
    Alcotest.test_case "service: deterministic across runs and jobs" `Slow
      test_service_deterministic;
    Alcotest.test_case "service: crash, recovery, every request answered" `Slow
      test_service_crash;
    Alcotest.test_case "service: incr exactly-once across crash" `Slow
      test_incr_exactly_once;
    Alcotest.test_case "service: stats verb from the registry" `Quick test_stats_verb;
    Alcotest.test_case "service: tracing is observation-only" `Slow test_trace_zero_cost;
    Alcotest.test_case "service: trace accounting covers latency" `Slow test_trace_accounting;
    Alcotest.test_case "service: multi-get overlap accounting" `Quick
      test_trace_multiget_overlap;
    Alcotest.test_case "service: hostile fleet output pinned" `Slow test_pinned_output;
    Alcotest.test_case "client: bench fleet digest pinned" `Slow test_fleet_digest;
    Alcotest.test_case "client: generator equals the reference" `Quick test_client_differential;
    Alcotest.test_case "client: bench fleet minor words bounded" `Slow test_fleet_allocation;
    Alcotest.test_case "client: bad sizes raise Invalid_argument" `Quick test_client_bad_arguments;
  ]
