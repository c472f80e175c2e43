(** Memcached text-protocol codec: the wire format of the {!Service}.

    Supports the command subset the paper's memcached workload models —
    [get] (multi-key), [set], [delete], [incr] — with the textual
    framing of the real protocol: space-separated command lines
    terminated by CRLF, and a [<bytes>]-long data block after [set].

    The parser is {e incremental}: feed it byte chunks as they arrive
    (a request may be split at any byte boundary) and drain complete
    requests as they become parseable.  Malformed input never raises —
    it yields a protocol error reply ([ERROR] / [CLIENT_ERROR ...]) and
    resynchronises at the next line, exactly as a server must.

    A command line longer than 4096 bytes (counting everything before
    its newline) yields exactly one [CLIENT_ERROR line too long], however
    the bytes were chunked; parsing resumes after that line's newline.

    Each parser keeps one growable byte buffer with read and write
    cursors: lines are tokenized in place and only keys and payloads
    are copied out. *)

type request =
  | Get of string list  (** [get key...] — at least one key *)
  | Set of { key : string; flags : int; data : string }
  | Delete of string
  | Incr of { key : string; delta : int }
  | Stats  (** [stats] — server statistics snapshot *)

val max_key_bytes : int
(** Longest accepted key (250, the memcached limit).  A key is
    non-empty and holds no control, space or DEL byte. *)

val max_value_bytes : int
(** Longest accepted [set] payload. *)


(** {1 Incremental parsing} *)

type parser_

val parser_create : unit -> parser_

val feed : parser_ -> string -> unit
(** Append a chunk of received bytes. *)

type item =
  | Request of request
  | Protocol_error of string
      (** rendered error reply to send back (ends in CRLF); the
          offending frame has been consumed *)

val next : parser_ -> item option
(** Extract the next complete item, or [None] when more bytes are
    needed.  Never raises. *)

val drain : parser_ -> item list
(** All items currently extractable, in order. *)

val buffered : parser_ -> int
(** Bytes received but not yet consumed (0 on a quiescent parser). *)

(** {1 Rendering}

    {2 Requests}

    The client side of the codec is one request writer: each [write_*]
    appends one request's wire bytes to a caller-owned buffer, so a
    fleet renders every request into one reused buffer without building
    a {!request} value.  [Set] renders with exptime 0. *)

val write_get : Buffer.t -> string list -> unit
(** [get key...]. *)

val write_set :
  Buffer.t -> key:string -> flags:int -> nbytes:int -> (Buffer.t -> unit) -> unit
(** [write_set b ~key ~flags ~nbytes data]: the [set] line, then the
    payload [data b] writes, then its CRLF.
    @raise Invalid_argument if [data] wrote other than [nbytes] bytes. *)

val write_delete : Buffer.t -> string -> unit

val write_incr : Buffer.t -> key:string -> delta:int -> unit

val render_request : request -> string
(** Wire bytes of a request: the request writer into a fresh buffer. *)

val add_decimal : Buffer.t -> int -> unit
(** Append [v] in decimal, as [string_of_int v] spells it, without
    building the string for [v >= 0]. *)

val decimal_length : int -> int
(** [String.length (string_of_int v)]: the bytes {!add_decimal} adds. *)

(** {2 Replies}

    The server side writes replies into a per-connection {!sink}.  A
    fresh sink only counts the bytes it is given; {!sink_alloc} then
    sizes it exactly and rewinds it, and the same calls replayed write
    the bytes in place, so {!sink_contents} needs no copy. *)

type sink

val sink_create : unit -> sink
(** A counting sink: writes advance its length only. *)

val sink_alloc : sink -> unit
(** Allocate exactly the bytes counted so far and rewind to offset 0. *)

val sink_contents : sink -> string
(** The bytes written (the sink must not be written again). *)

val put_raw : sink -> string -> unit
(** Already-rendered reply bytes, e.g. a {!Protocol_error} reply. *)

val put_value : sink -> key:string -> flags:int -> string -> unit
(** One [VALUE key flags bytes] entry of a [get] reply, with its data. *)

val put_end : sink -> unit
(** [END]: closes a [get] reply. *)

val put_stats : sink -> (string * string) list -> unit
(** A whole [stats] reply: one [STAT name value] line per pair, then
    [END]. *)

val put_stored : sink -> unit
val put_deleted : sink -> unit
val put_not_found : sink -> unit

val put_number : sink -> int -> unit
(** The new value after an [incr]. *)

val put_not_numeric : sink -> unit
(** The [CLIENT_ERROR] of an [incr] on a non-decimal value. *)
