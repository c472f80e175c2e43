(** Memcached-style key/value store (Fig 8, §IV-E).

    The paper's experiment: memcached with memaslap driving a 50/50
    get/set mix, 128-byte keys, 1-KB values, uniformly random keys (so
    effectively no locality), one worker thread, sweeping the number of
    cached items so the working set crosses the L3 (32 KB scaled) and
    then the DRAM page cache (96 MB scaled).

    Items are pre-populated: a hash-table index maps key-id to an item
    descriptor holding pointers to a 16-word key block and a 128-word
    value block.  GET compares the full key block and reads the whole
    value; SET overwrites the whole value block — matching the memory
    traffic of the real server. *)

val value_words : int

val spec : items:int -> Driver.spec
(** A store pre-filled with [items] items. *)

val items_for_bytes : int -> int
(** Number of items whose footprint is approximately the given working
    set in (simulated) bytes. *)
