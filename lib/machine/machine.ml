exception Crashed

exception Corrupt_image of string

type t = {
  words : int;
  meta_words : int;
  needs_flush : bool;
  needs_fence : bool;
  durable_publish : bool;
  load : int -> int;
  validated_load : int -> int -> int -> int array -> bool;
  store : int -> int -> unit;
  clwb : int -> unit;
  clwb_many : int array -> int -> unit;
  sfence : unit -> unit;
  meta_get : int -> int;
  meta_set : int -> int -> unit;
  meta_cas : int -> int -> int -> bool;
  meta_fetch_add : int -> int -> int;
  exclusive : unit -> bool;
  tid : unit -> int;
  now_ns : unit -> float;
  pause : int -> unit;
  raw_read : int -> int;
  raw_write : int -> int -> unit;
  mark_log_range : int -> int -> unit;
  publish : int array -> int array -> int -> unit;
}

let plain_validated_load m orec bound addr (out : int array) =
  let w = m.meta_get orec in
  out.(0) <- w;
  w land 1 = 0
  && w <= bound
  && begin
    out.(1) <- m.load addr;
    m.meta_get orec = w
  end

module Layout = struct
  let bytes_per_word = 8
  let words_per_line = 8
  let words_per_page = 512
  let line_of_addr addr = addr / words_per_line
  let page_of_addr addr = addr / words_per_page
  let addr_of_line line = line * words_per_line
end

module Meta_layout = struct
  let clock_idx = 0
  let alloc_high_water_idx = 1
  let orec_base = 64
end

module Native = struct
  let create ~words ~meta_words =
    (* Dense thread ids are per machine (a fresh DLS key each), so one
       process can host many machines without id collisions. *)
    let next_tid = Atomic.make 0 in
    let tid_key = Domain.DLS.new_key (fun () -> Atomic.fetch_and_add next_tid 1) in
    let current_tid () = Domain.DLS.get tid_key in
    let heap = Array.make words 0 in
    let meta = Array.init meta_words (fun _ -> Atomic.make 0) in
    let rec fetch_add cell delta =
      let old = Atomic.get cell in
      if Atomic.compare_and_set cell old (old + delta) then old else fetch_add cell delta
    in
    let pause ns =
      (* Spin briefly; exact duration is irrelevant for correctness tests. *)
      for _ = 1 to 1 + (ns / 10) do
        Domain.cpu_relax ()
      done
    in
    let rec m =
      {
        words;
        meta_words;
        needs_flush = false;
        needs_fence = false;
        durable_publish = false;
        load = (fun addr -> heap.(addr));
        validated_load = (fun orec bound addr out -> plain_validated_load m orec bound addr out);
        store = (fun addr v -> heap.(addr) <- v);
        clwb = (fun _addr -> ());
        clwb_many = (fun _addrs _n -> ());
        sfence = ignore;
        meta_get = (fun i -> Atomic.get meta.(i));
        meta_set = (fun i v -> Atomic.set meta.(i) v);
        meta_cas = (fun i expected v -> Atomic.compare_and_set meta.(i) expected v);
        meta_fetch_add = (fun i delta -> fetch_add meta.(i) delta);
        exclusive = (fun () -> false);
        tid = current_tid;
        now_ns = (fun () -> Unix.gettimeofday () *. 1e9);
        pause;
        raw_read = (fun addr -> heap.(addr));
        raw_write = (fun addr v -> heap.(addr) <- v);
        mark_log_range = (fun _lo _hi -> ());
        publish =
          (fun addrs values n ->
            for i = 0 to n - 1 do
              heap.(addrs.(i)) <- values.(i)
            done);
      }
    in
    m
end
