module Ptm = Pstm.Ptm

(* Layout: word 0 = byte length; words 1.. = bytes packed
   little-endian, 7 per word (8 would not fit OCaml's 63-bit int). *)

type t = int

let bytes_per_word = 7

let max_bytes = (Pmem.Alloc.max_object_words - 1) * bytes_per_word

let data_words bytes = (bytes + bytes_per_word - 1) / bytes_per_word

let words_for bytes = 1 + data_words bytes

let pack s word_idx =
  let len = String.length s in
  let base = word_idx * bytes_per_word in
  let w = ref 0 in
  for b = bytes_per_word - 1 downto 0 do
    let i = base + b in
    w := (!w lsl 8) lor (if i < len then Char.code s.[i] else 0)
  done;
  !w

let unpack buf w word_idx len =
  let base = word_idx * bytes_per_word in
  let v = ref w in
  for b = 0 to bytes_per_word - 1 do
    let i = base + b in
    if i < len then Bytes.set buf i (Char.chr (!v land 0xFF));
    v := !v lsr 8
  done

let alloc tx s =
  let len = String.length s in
  if len > max_bytes then invalid_arg "Pblob.alloc: too large";
  let blob = Ptm.alloc tx (words_for len) in
  Ptm.write tx blob len;
  for w = 0 to data_words len - 1 do
    Ptm.write tx (blob + 1 + w) (pack s w)
  done;
  blob

let free tx blob = Ptm.free tx blob

let length tx blob = Ptm.read tx blob

let get tx blob =
  let len = length tx blob in
  let buf = Bytes.create len in
  for w = 0 to data_words len - 1 do
    unpack buf (Ptm.read tx (blob + 1 + w)) w len
  done;
  Bytes.unsafe_to_string buf

let set tx blob s =
  let len = length tx blob in
  if String.length s <> len then invalid_arg "Pblob.set: length mismatch";
  for w = 0 to data_words len - 1 do
    Ptm.write tx (blob + 1 + w) (pack s w)
  done

let equal_string tx blob s =
  let len = length tx blob in
  if String.length s <> len then false
  else begin
    let words = data_words len in
    let rec go w =
      w >= words || (Ptm.read tx (blob + 1 + w) = pack s w && go (w + 1))
    in
    go 0
  end

