(* Host-time ledger for a traced rep.

   The benchmark times layers from outside: every wrapped call switches
   the ledger's current layer on entry and on exit, charging the host
   nanoseconds since the previous switch to the layer that was current.
   A switch is a state change, not a push/pop, so the ledger stays
   right when the effect scheduler suspends a simulated thread inside a
   machine call and resumes another one, which then returns from its
   own call: that return switches to the layer above the boundary, as
   it should.  The self times of all layers therefore add up to the
   wall time between [reset] and [stop]. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  names : string array;
  self_ns : int array;
  entries : int array;  (** switches into each layer *)
  mutable cur : int;
  mutable last : int;
}

let create names =
  let n = Array.length names in
  { names; self_ns = Array.make n 0; entries = Array.make n 0; cur = 0; last = now_ns () }

let switch t layer =
  let now = now_ns () in
  t.self_ns.(t.cur) <- t.self_ns.(t.cur) + (now - t.last);
  t.entries.(layer) <- t.entries.(layer) + 1;
  t.last <- now;
  t.cur <- layer

(* Start a fresh accounting window at host instant [at], in [layer]. *)
let reset t ~at ~layer =
  Array.fill t.self_ns 0 (Array.length t.self_ns) 0;
  Array.fill t.entries 0 (Array.length t.entries) 0;
  t.cur <- layer;
  t.last <- at

(* Close the window at host instant [at]. *)
let stop t ~at =
  t.self_ns.(t.cur) <- t.self_ns.(t.cur) + (at - t.last);
  t.last <- at

let index t name =
  let rec go i =
    if i >= Array.length t.names then invalid_arg ("Ledger.index: " ^ name)
    else if t.names.(i) = name then i
    else go (i + 1)
  in
  go 0

let self_ns t name = t.self_ns.(index t name)
let entries t name = t.entries.(index t name)

(* ---------- the Machine.t boundary ---------- *)

(* Layers of a DES rep: one per wrapped machine operation kind (host
   time below the boundary: memsim plus the scheduler), then [op]
   (workload, pstructs and pstm code above the boundary) and [driver]
   (the benchmark's own driver loop). *)
let machine_kinds = [ "load"; "store"; "clwb"; "clwb_many"; "sfence"; "meta"; "pause"; "publish" ]

let des_layers = Array.of_list (machine_kinds @ [ "op"; "driver" ])
let op = List.length machine_kinds
let driver = op + 1

let wrap_machine t (m : Machine.t) =
  let { Machine.load; store; clwb; clwb_many; sfence; meta_get; meta_set; meta_cas;
        meta_fetch_add; pause; publish; _ } =
    m
  in
  let leave () = switch t op in
  {
    m with
    Machine.load =
      (fun a ->
        switch t 0;
        let v = load a in
        leave ();
        v);
    store =
      (fun a v ->
        switch t 1;
        store a v;
        leave ());
    clwb =
      (fun a ->
        switch t 2;
        clwb a;
        leave ());
    clwb_many =
      (fun addrs n ->
        switch t 3;
        clwb_many addrs n;
        leave ());
    sfence =
      (fun () ->
        switch t 4;
        sfence ();
        leave ());
    meta_get =
      (fun i ->
        switch t 5;
        let v = meta_get i in
        leave ();
        v);
    meta_set =
      (fun i v ->
        switch t 5;
        meta_set i v;
        leave ());
    meta_cas =
      (fun i e v ->
        switch t 5;
        let ok = meta_cas i e v in
        leave ();
        ok);
    meta_fetch_add =
      (fun i d ->
        switch t 5;
        let v = meta_fetch_add i d in
        leave ();
        v);
    pause =
      (fun ns ->
        switch t 6;
        pause ns;
        leave ());
    publish =
      (fun addrs values n ->
        switch t 7;
        publish addrs values n;
        leave ());
  }

(* Host ns one boundary crossing adds, measured rather than inferred: a
   tight loop of wrapped [load]s on a native machine against the same
   loop unwrapped, median of 21 batches.  Each wrapped call crosses
   twice (in and out). *)
let calibrate () =
  let bare = Machine.Native.create ~words:8 ~meta_words:8 in
  let wrapped = wrap_machine (create des_layers) bare in
  let n = 20_000 in
  let time (m : Machine.t) =
    let t0 = now_ns () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (m.Machine.load 0))
    done;
    now_ns () - t0
  in
  let batch () = float_of_int (time wrapped - time bare) /. float_of_int (2 * n) in
  let a = Array.init 21 (fun _ -> batch ()) in
  Array.sort compare a;
  Float.max 0.0 a.(10)

(* ---------- crash-scenario closures ---------- *)

let crash_layers = [| "engine"; "worker"; "validate"; "oracle" |]

(* Wrap a scenario so every instance's closures are timed.  Simulated
   worker threads interleave inside [Sim.run], so the worker layer is
   current from the first worker's start until the last one has
   returned or been killed by the crash; everything outside the three
   closures (reboot, recovery, region checks, enumeration, image I/O)
   stays in [engine]. *)
let wrap_scenario t (sc : Crashtest.Engine.scenario) =
  let engine = 0 and worker = 1 and validate = 2 and oracle = 3 in
  let active = ref 0 in
  let timed layer f =
    switch t layer;
    Fun.protect ~finally:(fun () -> switch t engine) f
  in
  let fresh ~seed =
    let inst = sc.Crashtest.Engine.fresh ~seed in
    {
      Crashtest.Engine.worker =
        (fun ~tid ptm ->
          if !active = 0 then switch t worker;
          incr active;
          Fun.protect
            ~finally:(fun () ->
              decr active;
              if !active = 0 then switch t engine)
            (fun () -> inst.Crashtest.Engine.worker ~tid ptm));
      validate =
        (fun ~crashed sim ptm ->
          timed validate (fun () -> inst.Crashtest.Engine.validate ~crashed sim ptm));
      oracle =
        Option.map
          (fun o ~crashed sim ptm -> timed oracle (fun () -> o ~crashed sim ptm))
          inst.Crashtest.Engine.oracle;
    }
  in
  { sc with Crashtest.Engine.fresh }
