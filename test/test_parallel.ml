(* Unit tests for the bounded domain pool behind the experiment layer:
   results come back in submission order, concurrency respects the
   [jobs] bound, worker exceptions propagate to the caller, and the
   degenerate batch shapes (empty, singleton) take the inline serial
   path. *)

module Pool = Parallel.Pool

let test_submission_order () =
  let n = 50 in
  let tasks = List.init n (fun i () -> i * i) in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "squares in submission order, jobs=%d" jobs)
        (List.init n (fun i -> i * i))
        (Pool.run ~jobs tasks))
    [ 1; 2; 4; 7 ]

let test_bounded_concurrency () =
  (* Track the high-water mark of simultaneously-running tasks; with
     [jobs] workers it can never exceed [jobs].  Tasks spin briefly so
     overlap is possible at all. *)
  let jobs = 3 in
  let running = Atomic.make 0 in
  let high_water = Atomic.make 0 in
  let rec bump_high_water v =
    let cur = Atomic.get high_water in
    if v > cur && not (Atomic.compare_and_set high_water cur v) then bump_high_water v
  in
  let task _ () =
    let v = 1 + Atomic.fetch_and_add running 1 in
    bump_high_water v;
    (* Busy-wait a little real time to give other workers a chance to
       overlap (no Domain.cpu_relax dependency; the loop is tiny). *)
    let fib = ref 1 and prev = ref 1 in
    for _ = 1 to 20_000 do
      let next = (!fib + !prev) land max_int in
      prev := !fib;
      fib := next
    done;
    ignore (Atomic.fetch_and_add running (-1));
    !fib
  in
  ignore (Pool.run ~jobs (List.init 24 task));
  let hw = Atomic.get high_water in
  Alcotest.(check bool)
    (Printf.sprintf "high-water %d <= jobs %d" hw jobs)
    true
    (hw >= 1 && hw <= jobs)

exception Boom of int

let test_exception_propagation () =
  (* The lowest-indexed failure is the one re-raised, and started tasks
     still finish (their effects are visible). *)
  let completed = Atomic.make 0 in
  let tasks =
    List.init 10 (fun i () ->
        if i = 4 then raise (Boom i)
        else begin
          ignore (Atomic.fetch_and_add completed 1);
          i
        end)
  in
  List.iter
    (fun jobs ->
      Atomic.set completed 0;
      match Pool.run ~jobs tasks with
      | _ -> Alcotest.failf "jobs=%d: expected Boom to propagate" jobs
      | exception Boom 4 -> ()
      | exception e ->
        Alcotest.failf "jobs=%d: expected Boom 4, got %s" jobs (Printexc.to_string e))
    [ 1; 2; 4 ];
  (* Serial run stops at the raise; tasks 0..3 completed. *)
  Atomic.set completed 0;
  ignore (match Pool.run ~jobs:1 tasks with _ -> () | exception Boom _ -> ());
  Alcotest.(check int) "serial stops at the failing task" 4 (Atomic.get completed)

let test_invalid_jobs () =
  Alcotest.check_raises "jobs=0 rejected" (Invalid_argument "Pool.run: jobs must be >= 1")
    (fun () -> ignore (Pool.run ~jobs:0 [ (fun () -> ()) ]))

let test_chunking () =
  (* Batched claiming changes only which worker runs a task, never the
     reassembled order — here with a default batch of 4 that does not
     divide the 50 tasks, so the last claim is short. *)
  let n = 50 and jobs = 3 in
  Alcotest.(check int) "batch of 4 leaves a short last claim" 4 (Pool.default_chunk ~n ~jobs);
  Alcotest.(check (list int))
    "order under batched claiming"
    (List.init n (fun i -> i * 3))
    (Pool.run ~jobs (List.init n (fun i () -> i * 3)));
  (* The lowest-indexed recorded failure still wins under batching. *)
  (match Pool.run ~jobs (List.init n (fun i () -> if i >= 25 then raise (Boom i))) with
  | _ -> Alcotest.fail "expected Boom to propagate through chunked run"
  | exception Boom i ->
    Alcotest.(check bool) (Printf.sprintf "lowest recorded failure (Boom %d)" i) true (i >= 25));
  Alcotest.(check bool) "default_chunk >= 1" true (Pool.default_chunk ~n:0 ~jobs:4 >= 1);
  Alcotest.(check int) "default_chunk spreads four claims per worker" 4
    (Pool.default_chunk ~n:32 ~jobs:2)

let test_edges () =
  Alcotest.(check (list int)) "empty batch" [] (Pool.run ~jobs:4 []);
  Alcotest.(check (list int)) "empty batch, serial" [] (Pool.run ~jobs:1 []);
  Alcotest.(check (list int)) "single task" [ 42 ] (Pool.run ~jobs:4 [ (fun () -> 42) ]);
  (* jobs exceeding the task count is clamped, not an error. *)
  Alcotest.(check (list int))
    "jobs > tasks" [ 1; 2 ]
    (Pool.run ~jobs:64 [ (fun () -> 1); (fun () -> 2) ]);
  Alcotest.(check bool) "default_jobs >= 1" true (Pool.default_jobs () >= 1)

let suite =
  [
    Alcotest.test_case "submission order" `Quick test_submission_order;
    Alcotest.test_case "bounded concurrency" `Quick test_bounded_concurrency;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "invalid jobs" `Quick test_invalid_jobs;
    Alcotest.test_case "chunked claiming" `Quick test_chunking;
    Alcotest.test_case "edge shapes" `Quick test_edges;
  ]
