(** Persistent byte strings (blobs) over the PTM API.

    Variable-length byte sequences packed 7-to-a-word (OCaml ints
    hold 63 bits), with the length
    in a header word — keys and values of real stores are bytes, not
    words, and this module gives the examples and workloads a faithful
    way to hold them.  A blob is immutable in size; contents can be
    overwritten transactionally. *)

type t = int
(** A blob is identified by its payload address. *)

val alloc : Pstm.Ptm.tx -> string -> t
(** Allocate and fill a blob from an OCaml string. *)

val free : Pstm.Ptm.tx -> t -> unit

val length : Pstm.Ptm.tx -> t -> int

val get : Pstm.Ptm.tx -> t -> string
(** Read the whole blob (performs the word loads a real server would). *)

val set : Pstm.Ptm.tx -> t -> string -> unit
(** Overwrite contents; the new string must have exactly the blob's
    length.  @raise Invalid_argument otherwise. *)

val equal_string : Pstm.Ptm.tx -> t -> string -> bool
(** Compare against a string, short-circuiting on the first
    mismatching word (the memcached key-comparison pattern). *)
