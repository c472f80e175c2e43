(* Span-based causal tracing on the simulator's virtual clock.

   A span is (trace, parent, kind, tid, start_ns, stop_ns).  Spans are
   recorded into flat growable arrays (no boxing on the hot path) with
   kinds interned to small ints; every read-out reconstructs the kind
   name, so digests and exports depend only on span content, never on
   interning order of a particular store.

   Recording is pure observation: span instants are values the caller
   already read from the machine's clock, so an enabled trace perturbs
   no virtual time.  Two stores are equal (same digest) iff they hold
   the same spans in the same order — the determinism currency of
   BENCH_trace.json, which @results holds exactly.

   Parent linkage: [root_parent] (-1) marks a span whose parent is the
   root span of its trace.  Per-shard stores record against
   [root_parent] because the root ("request") spans only exist in the
   service-global store; {!merge_into} rewrites local parents by offset
   and resolves [root_parent] through the caller's [root_for]. *)

module Vec = Repro_util.Int_vec
module Histogram = Repro_util.Histogram

let root_parent = -1

type t = {
  mutable kind_names : string array;
  mutable nkinds : int;
  kind_ids : (string, int) Hashtbl.t;
  v_trace : Vec.t;
  v_parent : Vec.t;
  v_kind : Vec.t;
  v_tid : Vec.t;
  v_start : Vec.t;
  v_stop : Vec.t;
}

let create () =
  {
    kind_names = Array.make 16 "";
    nkinds = 0;
    kind_ids = Hashtbl.create 32;
    v_trace = Vec.create ();
    v_parent = Vec.create ();
    v_kind = Vec.create ();
    v_tid = Vec.create ();
    v_start = Vec.create ();
    v_stop = Vec.create ();
  }

let intern t name =
  match Hashtbl.find_opt t.kind_ids name with
  | Some i -> i
  | None ->
    if t.nkinds = Array.length t.kind_names then begin
      let bigger = Array.make (2 * t.nkinds) "" in
      Array.blit t.kind_names 0 bigger 0 t.nkinds;
      t.kind_names <- bigger
    end;
    let i = t.nkinds in
    t.kind_names.(i) <- name;
    t.nkinds <- i + 1;
    Hashtbl.add t.kind_ids name i;
    i

let length t = Vec.length t.v_trace

let span t ~trace ~parent ~kind ~tid ~start_ns ~stop_ns =
  let id = length t in
  Vec.push t.v_trace trace;
  Vec.push t.v_parent parent;
  Vec.push t.v_kind (intern t kind);
  Vec.push t.v_tid tid;
  Vec.push t.v_start start_ns;
  Vec.push t.v_stop stop_ns;
  id

type span_view = {
  s_trace : int;
  s_parent : int;
  s_kind : string;
  s_tid : int;
  s_start_ns : int;
  s_stop_ns : int;
}

let get t i =
  {
    s_trace = Vec.get t.v_trace i;
    s_parent = Vec.get t.v_parent i;
    s_kind = t.kind_names.(Vec.get t.v_kind i);
    s_tid = Vec.get t.v_tid i;
    s_start_ns = Vec.get t.v_start i;
    s_stop_ns = Vec.get t.v_stop i;
  }

let iter f t =
  for i = 0 to length t - 1 do
    f i (get t i)
  done

let merge_into ~src ~dst ~root_for =
  let base = length dst in
  for i = 0 to length src - 1 do
    let s = get src i in
    let parent =
      if s.s_parent >= 0 then s.s_parent + base else root_for s.s_trace
    in
    ignore
      (span dst ~trace:s.s_trace ~parent ~kind:s.s_kind ~tid:s.s_tid ~start_ns:s.s_start_ns
         ~stop_ns:s.s_stop_ns)
  done

(* ---------- digest (determinism currency) ---------- *)

let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L

let digest t =
  let h = ref fnv_offset in
  let mix v = h := Int64.mul (Int64.logxor !h (Int64.of_int v)) fnv_prime in
  let mix_string s = String.iter (fun c -> mix (Char.code c)) s in
  iter
    (fun _ s ->
      mix s.s_trace;
      mix s.s_parent;
      mix_string s.s_kind;
      mix s.s_tid;
      mix s.s_start_ns;
      mix s.s_stop_ns)
    t;
  Printf.sprintf "%016Lx" !h

(* ---------- roots and accounting ---------- *)

(* A root is a span recorded with no parent on a real trace; the
   service records exactly one per request ("request", arrival →
   completion).  Spans on trace -1 (service-level: recovery, restart
   gap) never join request accounting. *)
let is_root s = s.s_parent = root_parent && s.s_trace >= 0 && s.s_kind = "request"

let roots t =
  let acc = ref [] in
  iter (fun i s -> if is_root s then acc := (i, s) :: !acc) t;
  List.rev !acc

let latency_hist t =
  let h = Histogram.create () in
  List.iter (fun (_, s) -> Histogram.record h (s.s_stop_ns - s.s_start_ns)) (roots t);
  h

(* Exclusive time: a span's own duration minus its direct children's
   durations, floored at 0 (overlapping children — a multi-key get
   fanned across shards — can cover more than the parent). *)
let child_sums t =
  let n = length t in
  let sums = Array.make n 0 in
  iter
    (fun _ s ->
      if s.s_parent >= 0 then
        sums.(s.s_parent) <- sums.(s.s_parent) + (s.s_stop_ns - s.s_start_ns))
    t;
  sums

let accounting t =
  let sums = child_sums t in
  let attributed = Hashtbl.create 256 in
  iter
    (fun i s ->
      if s.s_trace >= 0 then begin
        let excl = max 0 (s.s_stop_ns - s.s_start_ns - sums.(i)) in
        let prev = Option.value (Hashtbl.find_opt attributed s.s_trace) ~default:0 in
        Hashtbl.replace attributed s.s_trace (prev + excl)
      end)
    t;
  List.sort compare
    (List.map
       (fun (_, s) ->
         ( s.s_trace,
           s.s_stop_ns - s.s_start_ns,
           Option.value (Hashtbl.find_opt attributed s.s_trace) ~default:0 ))
       (roots t))

(* ---------- blame: exclusive time per span kind, percentile band ---------- *)

type blame_row = { bkind : string; bspans : int; bexclusive_ns : int; bshare : float }

type blame = {
  brequests : int;  (* requests inside the band *)
  bband_lo_ns : int;
  bband_hi_ns : int;
  btotal_latency_ns : int;
  battributed_ns : int;
  bslack_ns : int;
  brows : blame_row list;
}

let blame t ~lo_pct ~hi_pct =
  let rts =
    List.sort
      (fun (_, a) (_, b) ->
        match compare (a.s_stop_ns - a.s_start_ns) (b.s_stop_ns - b.s_start_ns) with
        | 0 -> compare a.s_trace b.s_trace
        | c -> c)
      (roots t)
  in
  let n = List.length rts in
  let lo_rank = max 1 (min n (1 + int_of_float (lo_pct /. 100.0 *. float_of_int n))) in
  let hi_rank = max lo_rank (min n (int_of_float (ceil (hi_pct /. 100.0 *. float_of_int n)))) in
  let selected = Hashtbl.create 64 in
  let band_lo = ref 0 and band_hi = ref 0 and total_latency = ref 0 in
  List.iteri
    (fun i (_, s) ->
      let rank = i + 1 in
      if rank >= lo_rank && rank <= hi_rank then begin
        let d = s.s_stop_ns - s.s_start_ns in
        if Hashtbl.length selected = 0 then band_lo := d;
        band_hi := max !band_hi d;
        total_latency := !total_latency + d;
        Hashtbl.replace selected s.s_trace ()
      end)
    rts;
  let sums = child_sums t in
  let per_kind = Hashtbl.create 32 in
  let attributed = ref 0 in
  iter
    (fun i s ->
      if s.s_trace >= 0 && Hashtbl.mem selected s.s_trace then begin
        let excl = max 0 (s.s_stop_ns - s.s_start_ns - sums.(i)) in
        attributed := !attributed + excl;
        let spans0, ns0 =
          Option.value (Hashtbl.find_opt per_kind s.s_kind) ~default:(0, 0)
        in
        Hashtbl.replace per_kind s.s_kind (spans0 + 1, ns0 + excl)
      end)
    t;
  let rows =
    Hashtbl.fold
      (fun kind (spans, ns) acc ->
        {
          bkind = kind;
          bspans = spans;
          bexclusive_ns = ns;
          bshare =
            (if !attributed > 0 then 100.0 *. float_of_int ns /. float_of_int !attributed
             else 0.0);
        }
        :: acc)
      per_kind []
  in
  let rows =
    List.sort
      (fun a b ->
        match compare b.bexclusive_ns a.bexclusive_ns with
        | 0 -> compare a.bkind b.bkind
        | c -> c)
      rows
  in
  {
    brequests = Hashtbl.length selected;
    bband_lo_ns = !band_lo;
    bband_hi_ns = !band_hi;
    btotal_latency_ns = !total_latency;
    battributed_ns = !attributed;
    bslack_ns = !attributed - !total_latency;
    brows = rows;
  }

(* ---------- Perfetto / Chrome trace_event export ---------- *)

let us ns = float_of_int ns /. 1000.0

(* Request spans live on pid 1 (pid 0 is the PTM profile), one track
   per trace so backlogged requests on one connection never produce
   mis-nested slices; service-level spans (trace -1) get a per-shard
   service track. *)
let chrome_trace t =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  Buffer.add_string buf
    "\n{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"kvserve requests\"}}";
  iter
    (fun _ s ->
      let tid, cat =
        if s.s_trace >= 0 then (s.s_trace, if s.s_kind = "request" then "request" else "span")
        else (1_000_000 + s.s_tid, "service")
      in
      Printf.bprintf buf
        ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\",\"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace\":%d,\"tid\":%d}}"
        tid s.s_kind cat (us s.s_start_ns)
        (us (s.s_stop_ns - s.s_start_ns))
        s.s_trace s.s_tid)
    t;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf
