module Ptm = Pstm.Ptm

let accounts = 1024
let initial_balance = 1000
let base_slot = 0

let setup ptm =
  Ptm.atomic ptm (fun tx ->
      let base = Ptm.alloc tx accounts in
      for i = 0 to accounts - 1 do
        Ptm.write tx (base + i) initial_balance
      done;
      Ptm.on_commit tx (fun () -> Ptm.root_set ptm base_slot base))

let make_op ptm ~tid ~rng =
  ignore tid;
  let base = Ptm.root_get ptm base_slot in
  fun () ->
    let src = Repro_util.Rng.int rng accounts in
    let dst = Repro_util.Rng.int rng accounts in
    let amount = 1 + Repro_util.Rng.int rng 8 in
    Ptm.atomic ptm (fun tx ->
        let s = Ptm.read tx (base + src) in
        let d = Ptm.read tx (base + dst) in
        if src <> dst then begin
          Ptm.write tx (base + src) (s - amount);
          Ptm.write tx (base + dst) (d + amount)
        end)

let total ptm =
  let base = Ptm.root_get ptm base_slot in
  Ptm.atomic ptm (fun tx ->
      let sum = ref 0 in
      for i = 0 to accounts - 1 do
        sum := !sum + Ptm.read tx (base + i)
      done;
      !sum)

let spec = { Driver.name = "bank"; heap_words = 1 lsl 20; setup; make_op }
