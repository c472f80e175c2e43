(** Demand-paged heap image.

    The persistent heap and its media image as arrays of page-sized
    chunks that all share one immutable zero page until first written.
    Creating an image is O(pages) pointer stores instead of O(words)
    zeroing, and copies/blits/serialization walk only touched chunks —
    the 32 MB-per-cell zeroing tax the ROADMAP's speedup item left on
    the table.  Reads cost two unsafe loads; writes add one physical
    equality test.  No operation ever mutates the shared zero page. *)

type t

val chunk_words : int
(** Chunk size in words = {!Machine.Layout.words_per_page}; a power of
    two, and a multiple of the cache-line size, so line-aligned
    transfers never straddle chunks. *)

val create : words:int -> t
(** All-zero image of [words] words; allocates no payload. *)

val words : t -> int

val get : t -> int -> int
(** Unchecked read (callers bound-check against [words] first). *)

val set : t -> int -> int -> unit
(** Unchecked write; materializes the chunk on first touch. *)

val touched : t -> int
(** Number of materialized chunks. *)

val copy_range : src:t -> dst:t -> int -> int -> unit
(** [copy_range ~src ~dst base len] copies [len] words at [base]
    (same offsets in both images), zero-aware on both sides. *)

val assign : src:t -> dst:t -> unit
(** [dst]'s content becomes a deep copy of [src]'s; untouched source
    chunks return the destination chunk to the shared zero page.  The
    two images share no mutable state afterwards. *)

val copy : t -> t
(** Fresh image with the same content; O(touched). *)

val fill_zero : t -> unit
(** Reset every chunk to the shared zero page. *)

val blit_to_array : t -> int -> int array -> int -> int -> unit
(** [blit_to_array t src_pos dst dst_pos len]: image -> flat array. *)

val blit_of_array : t -> int -> int array -> int -> int -> unit
(** [blit_of_array t dst_pos src src_pos len]: flat array -> image. *)

val iter_touched : t -> (int -> int array -> unit) -> unit
(** Visit (chunk index, chunk payload) for each materialized chunk in
    address order.  The payload is live — do not mutate. *)

val of_touched : words:int -> (int * int array) list -> t
(** Rebuild an image from serialized (chunk index, payload) pairs;
    payloads are copied.  @raise Invalid_argument on out-of-range
    indices or mis-sized chunks. *)
