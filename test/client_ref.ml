(* Reference model of the kvserve client fleet: the original generator
   ([Printf]/[String.concat] rendering, one payload string per [set],
   a [Protocol.request] value per request, and a binary search over
   the whole Zipf CDF per draw), kept only so the single-buffer
   [Kvserve.Client.generate] and the guide-table [Repro_util.Zipf] can
   be checked against it. *)

module Rng = Repro_util.Rng
module Int_heap = Repro_util.Int_heap
module Protocol = Kvserve.Protocol
open Kvserve.Client

module Zipf = struct
  type t = { n : int; cdf : float array }

  let create ?(theta = 0.99) n =
    assert (n > 0);
    let weights = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) theta) in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (weights.(i) /. total);
      cdf.(i) <- !acc
    done;
    cdf.(n - 1) <- 1.0;
    { n; cdf }

  let n t = t.n

  let sample t rng =
    let u = Rng.float rng 1.0 in
    (* Smallest index whose cdf >= u. *)
    let lo = ref 0 and hi = ref (t.n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
end

let render_request = function
  | Protocol.Get keys -> "get " ^ String.concat " " keys ^ "\r\n"
  | Protocol.Set { key; flags; data } ->
    Printf.sprintf "set %s %d 0 %d\r\n%s\r\n" key flags (String.length data) data
  | Protocol.Delete key -> Printf.sprintf "delete %s\r\n" key
  | Protocol.Incr { key; delta } -> Printf.sprintf "incr %s %d\r\n" key delta
  | Protocol.Stats -> "stats\r\n"

(* [prefix] then [i] in decimal, zero-padded to [width] digits: what
   [Printf.sprintf "%0*d"] gives for [i >= 0], without the format
   interpreter. *)
let padded prefix width i =
  let d = string_of_int i in
  let p = String.length prefix and n = String.length d in
  let pad = max 0 (width - n) in
  let b = Bytes.make (p + pad + n) '0' in
  Bytes.blit_string prefix 0 b 0 p;
  Bytes.blit_string d 0 b (p + pad) n;
  Bytes.unsafe_to_string b

let key_of i = padded "k" 6 i

(* Small dedicated counter keyspace for [incr] traffic (values must be
   decimal; the bulk keyspace holds opaque payloads). *)
let counters = 16
let counter_of i = padded "c" 2 i

let value_of ~rank ~version ~value_bytes =
  let stamp = String.concat "" [ "r"; string_of_int rank; ".v"; string_of_int version; "." ] in
  let n = max (String.length stamp) value_bytes in
  let b = Bytes.make n 'x' in
  Bytes.blit_string stamp 0 b 0 (String.length stamp);
  (* Deterministic filler that varies by position, so same-length
     values still differ beyond the stamp. *)
  for i = String.length stamp to n - 1 do
    Bytes.set b i (Char.chr (97 + ((rank + i) mod 26)))
  done;
  Bytes.to_string b

(* Merge per-connection chunk lists into global arrival order, ties
   broken by connection id.  Each connection's chunks are already in
   arrival order (its clock rises by at least 1 per request, and the two
   halves of a torn request share an instant), so this equals a stable
   sort of the conn-major emission order.  [rev_chunks.(c)] lists
   connection [c]'s chunks latest first: merging from the back, with
   each connection keyed by its latest unmerged (arrival, conn) negated
   in a min-heap, conses the result in order. *)
let merge_by_arrival rev_chunks =
  let conns = Array.length rev_chunks in
  let heap = Int_heap.create () in
  let push c =
    match rev_chunks.(c) with
    | x :: _ -> Int_heap.push heap ~key:(-((x.arrival_ns * conns) + c)) c
    | [] -> ()
  in
  for c = 0 to conns - 1 do
    push c
  done;
  let merged = ref [] in
  while not (Int_heap.is_empty heap) do
    let c = Int_heap.pop heap in
    match rev_chunks.(c) with
    | x :: rest ->
      merged := x :: !merged;
      rev_chunks.(c) <- rest;
      push c
    | [] -> assert false
  done;
  !merged

let generate ~seed ~conns ~requests_per_conn ~items ~value_bytes ~set_ratio ~delete_ratio
    ~incr_ratio ~mean_gap_ns ~theta () =
  let zipf = Zipf.create ~theta items in
  let root = Rng.create seed in
  let requests = ref 0 in
  (* Per-connection chunks, latest first. *)
  let rev_chunks = Array.make conns [] in
  (* Trace context allocation: every request gets a globally unique
     trace id at generation time (conn-major emission order), recorded
     per connection so the service frontend can hand the id to the
     n-th request it parses off that connection. *)
  let trace_ids = Array.make conns [||] in
  for conn = 0 to conns - 1 do
    let rng = Rng.split root in
    let conn_traces = Array.make requests_per_conn 0 in
    trace_ids.(conn) <- conn_traces;
    (* Per-connection write-version counter: payloads are identifiable
       but never depend on what other connections did. *)
    let version = ref 0 in
    let clock = ref 0 in
    for o = 0 to requests_per_conn - 1 do
      conn_traces.(o) <- !requests;
      clock := !clock + 1 + Rng.int rng (2 * mean_gap_ns);
      let rank = Zipf.sample zipf rng in
      let key = key_of rank in
      let r = Rng.float rng 1.0 in
      let request =
        if r < set_ratio then begin
          incr version;
          Protocol.Set
            { key; flags = conn; data = value_of ~rank ~version:!version ~value_bytes }
        end
        else if r < set_ratio +. delete_ratio then Protocol.Delete key
        else if r < set_ratio +. delete_ratio +. incr_ratio then
          Protocol.Incr { key = counter_of (Rng.int rng counters); delta = 1 + Rng.int rng 9 }
        else Protocol.Get [ key ]
      in
      incr requests;
      let bytes = render_request request in
      (* Tear roughly half the requests at a random interior byte: both
         halves hit the wire at the same instant, but the parser sees
         them as separate reads. *)
      let n = String.length bytes in
      let emit c = rev_chunks.(conn) <- c :: rev_chunks.(conn) in
      if n >= 2 && Rng.bool rng then begin
        let cut = 1 + Rng.int rng (n - 1) in
        emit { arrival_ns = !clock; conn; bytes = String.sub bytes 0 cut };
        emit { arrival_ns = !clock; conn; bytes = String.sub bytes cut (n - cut) }
      end
      else emit { arrival_ns = !clock; conn; bytes }
    done
  done;
  { chunks = merge_by_arrival rev_chunks; conns; requests = !requests; trace_ids }
