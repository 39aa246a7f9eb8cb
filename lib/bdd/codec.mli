(** The byte codec under every binary format: BDD1, DDC1, RCP1, BSJ1 and
    the serve wire (DESIGN.md §Codec).

    Integers are unsigned LEB128 varints, seven bits per byte, low bits
    first.  The reader accepts what the writer emits and nothing that
    would not fit: a varint is at most nine bytes and its ninth byte is
    at most [0x3f], so every value read is a non-negative [int]; and
    every count is checked against the bytes left before anything is
    allocated for it.  A reader raises the exception its format passes
    in, so each format keeps its own typed error ([Bdd.Corrupt],
    [Dd.Corrupt], [Proto.Bad_frame]).  Magics, checksum trailers and
    rules that belong to one format stay with that format. *)

(** {1 Writing} *)

val add_varint : Buffer.t -> int -> unit
(** @raise Invalid_argument on a negative integer. *)

val add_bool : Buffer.t -> bool -> unit
(** One byte, [0] or [1]. *)

val add_str : Buffer.t -> string -> unit
(** Length varint, then the bytes. *)

val add_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** Count varint, then each element. *)

(** {1 Reading} *)

type reader

val reader : ?pos:int -> fail:(string -> exn) -> string -> reader
(** A reader over the string from [pos] (default 0) to its end; every
    malformation raises [fail reason]. *)

val pos : reader -> int
(** The offset of the next unread byte. *)

val byte : reader -> int
val varint : reader -> int

val count : reader -> min_bytes:int -> int
(** A varint that announces that many items of at least [min_bytes]
    bytes each; fails unless the bytes left can hold them. *)

val take : reader -> int -> string
(** The next [n] bytes; fails unless that many are left. *)

val str : reader -> string
(** What {!add_str} wrote. *)

val list : reader -> (reader -> 'a) -> 'a list
(** What {!add_list} wrote; every element takes at least one byte. *)

val bool : reader -> bool
(** What {!add_bool} wrote; any byte other than [0] or [1] fails. *)

val finish : reader -> unit
(** Fails unless every byte has been read. *)

val fail : reader -> ('a, unit, string, 'b) format4 -> 'a
(** Raise the reader's exception, for a rule of the format itself (an
    unknown tag, a bound of its own). *)
