type 'a slot =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* Four claims per worker: coarse enough that the fetch-and-add and the
   cache-line ping-pong on [next] vanish from the per-cell cost, fine
   enough that a straggler cell can't leave the other workers idle for
   more than ~a quarter of the batch. *)
let default_chunk ~n ~jobs = max 1 (n / max 1 (jobs * 4))

let run_serial tasks = List.map (fun f -> f ()) tasks

let run ?jobs tasks =
  let n = List.length tasks in
  let jobs =
    match jobs with
    | Some j when j < 1 -> invalid_arg "Pool.run: jobs must be >= 1"
    | Some j -> min j n
    | None -> min (default_jobs ()) n
  in
  if jobs <= 1 then run_serial tasks
  else begin
    let chunk = default_chunk ~n ~jobs in
    let tasks = Array.of_list tasks in
    let results = Array.make n Pending in
    (* Workers claim [chunk]-sized index batches in submission order;
       each slot is written by exactly one domain and read only after
       the joins below, so the join is the synchronisation point. *)
    let next = Atomic.make 0 in
    let failed = Atomic.make false in
    let rec worker () =
      let i0 = Atomic.fetch_and_add next chunk in
      if i0 < n then begin
        let hi = min n (i0 + chunk) in
        let i = ref i0 in
        while !i < hi && not (Atomic.get failed) do
          (match tasks.(!i) () with
          | v -> results.(!i) <- Done v
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            results.(!i) <- Failed (e, bt);
            Atomic.set failed true);
          incr i
        done;
        if not (Atomic.get failed) then worker ()
      end
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    (* The caller is the [jobs]-th worker. *)
    let caller_exn = match worker () with () -> None | exception e -> Some e in
    List.iter Domain.join domains;
    (match caller_exn with
    (* A raise that escaped a worker body can only come from the pool's
       own bookkeeping; re-raise rather than mask it. *)
    | Some e -> raise e
    | None -> ());
    if Atomic.get failed then begin
      Array.iter
        (function Failed (e, bt) -> Printexc.raise_with_backtrace e bt | Pending | Done _ -> ())
        results
    end;
    Array.to_list
      (Array.map
         (function
           | Done v -> v
           | Pending | Failed _ -> assert false (* unreachable: failures re-raised above *))
         results)
  end
