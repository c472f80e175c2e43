(* A fixed reference kernel, timed next to every rep.

   The host this benchmark runs on changes speed over minutes: other
   tenants share its cores, caches and memory, and the same rep can take
   25 % longer from one minute to the next.  Wall time alone then
   measures the machine as much as the code.  The kernel below does a
   fixed mix of integer work, dependent loads over a 32 MB ring and
   streaming stores over another 32 MB.  It runs none of the
   repository's code and allocates nothing on the OCaml heap, so neither
   a change to the simulator nor the size of the heap a workload leaves
   behind moves its time: only the machine does.  A rep's wall time
   scaled by [nominal_s /. kernel time] reads as seconds on a host that
   runs the kernel in [nominal_s]. *)

(* The kernel's median time on the 2-vCPU Xeon VM the benchmark was
   written on. *)
let nominal_s = 0.08

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let words = 1 lsl 22

(* Outside the OCaml heap, so the collector never scans them.  [ring]
   is a single cycle through all its slots, built by Sattolo's shuffle
   from a fixed seed. *)
let buffers =
  lazy
    (let ring = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
     for i = 0 to words - 1 do
       ring.{i} <- i
     done;
     let st = Random.State.make [| 0x5eed |] in
     for i = words - 1 downto 1 do
       let j = Random.State.int st i in
       let t = ring.{i} in
       ring.{i} <- ring.{j};
       ring.{j} <- t
     done;
     (ring, Bigarray.Array1.create Bigarray.int Bigarray.c_layout words))

let integer () =
  let x = ref 1 in
  for _ = 1 to 6_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff
  done;
  ignore (Sys.opaque_identity !x)

let chase ring =
  let p = ref 0 in
  for _ = 1 to 400_000 do
    p := Bigarray.Array1.unsafe_get ring !p
  done;
  ignore (Sys.opaque_identity !p)

let stream buf =
  for i = 1 to 8 do
    Bigarray.Array1.fill buf i
  done

(* Host seconds of one pass of the kernel. *)
let time () =
  let ring, buf = Lazy.force buffers in
  let t0 = now_s () in
  integer ();
  chase ring;
  stream buf;
  now_s () -. t0
