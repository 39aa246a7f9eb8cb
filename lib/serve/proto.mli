(** The BDD service wire protocol: length-prefixed, checksummed binary
    frames.

    Frame layout (both directions):

    {v "BSV1" ++ u8 version ++ le32 body-length ++ body ++ le32 crc v}

    with the CRC-32 ({!Resil.Checkpoint.crc32}) taken over everything
    before it — body, magic, version and length — the same trailer
    discipline as {!Resil.Checkpoint}, so a flipped bit or a torn write
    anywhere in a frame raises {!Bad_frame} and can never decode into a
    different well-formed message.  Bodies are opcode-tagged and use the
    {!Codec} varints that {!Bdd.serialized_to_string} uses too, plus two
    field types of the wire's own: zigzagged signed integers ({!Stats_are}
    values) and le64 floats; BDD payloads ({!Put},
    {!Fetch}) travel as [Bdd.export] bytes and are revalidated by
    [Bdd.import] on arrival.

    Handles are small per-session integers naming BDDs that live in the
    session's private manager on the server; sessions never see each
    other's handles (see DESIGN.md §Serving).

    Every reply that may have walked the degradation ladder carries a
    {!cert}: [Exact], or [Degraded rungs] — the result is a sound
    under-approximation of the exact answer and [rungs] names the relief
    measures taken (["gc"], ["HB\@512"], …), mirroring
    {!Resil.Degrade}. *)

exception Bad_frame of string
(** Malformed frame or body: bad magic, unsupported version, length
    mismatch, checksum mismatch, unknown opcode, a varint over nine bytes
    or above [max_int], a count or length beyond the body, truncated or
    trailing body bytes.  This is the only exception the decoders raise,
    whatever the bytes.  A peer receiving this on decode must treat the
    connection as desynchronized and close it. *)

(** Handle-level BDD operations ({!Apply}). *)
type op =
  | Not of int
  | And of int * int
  | Or of int * int
  | Xor of int * int
  | Ite of int * int * int
  | Exists of int list * int  (** quantified variable indices, operand *)
  | Forall of int list * int

type request =
  | Ping
  | Lit of { var : int; phase : bool }
      (** the positive ([phase]) or negative literal of variable [var] *)
  | Put of { bdd : string }  (** [Bdd.serialized_to_string] bytes *)
  | Fetch of { handle : int }
  | Apply of op
  | Compile of { name : string; blif : string }
      (** register the BLIF text as model [name] and build its output
          functions as handles *)
  | Approx of { meth : Approx.meth; threshold : int; handle : int }
  | Decomp of { handle : int; disjunctive : bool }
  | Reach of { model : string; max_iter : int }  (** [0] = unbounded *)
  | Count of { handle : int; nvars : int }
  | Sat of { handle : int }
  | Free of { handles : int list }
  | Stats
  | Attach of { key : string }
      (** bind this connection to the durable session named [key],
          creating it if new and resuming it (handles intact) if a
          previous connection dropped — the basis for safe client
          reconnects.  Handled by the server's reader, not the worker
          pool. *)

type meta = {
  deadline_ms : int;
      (** soft per-request deadline in milliseconds; [0] = none.  The
          server turns it into a kernel tick-hook budget so long
          [Apply]/[Reach] work is cooperatively cancelled and answered
          via the degradation ladder with a ["deadline"] rung. *)
  token : int;
      (** idempotency token; [0] = none.  The server keeps a per-session
          dedup window and replays the recorded reply when a retry
          carries a token it has already served, so retried stateful
          requests ([Compile], [Put]) are exactly-once. *)
}

val no_meta : meta
(** [{ deadline_ms = 0; token = 0 }] — encodes as no envelope at all,
    byte-identical to the PR 5 wire format. *)

type cert = Exact | Degraded of string list

type reply =
  | Pong
  | Handle of { id : int; size : int; cert : cert }
  | Bdd_payload of { bdd : string }
  | Handles of (string * int * int) list  (** name, handle, size *)
  | Pair of { g : int; g_size : int; h : int; h_size : int; shared : int }
  | Reach_done of {
      states : float;
      iterations : int;
      images : int;
      reached : int;  (** handle on the reached set *)
      reached_size : int;
      cert : cert;
    }
  | Count_is of float
  | Sat_is of (int * bool) list option
  | Stats_are of (string * int) list
  | Freed of int
  | Error of string
      (** the request failed; the session and every other handle are
          unaffected *)
  | Overloaded
      (** admission control refused the request; retry later *)
  | Attached of { session : int; resumed : bool; handles : int }
      (** reply to {!Attach}: the durable session id, whether an existing
          session was resumed, and how many handles it holds *)

val add_op : Buffer.t -> op -> unit
val read_op : Codec.reader -> op
(** An {!op}'s encoding inside an {!Apply} body, shared with the session
    journal; [read_op] fails through the reader's own exception. *)

val pp_request : Format.formatter -> request -> unit
val pp_reply : Format.formatter -> reply -> unit

(** {1 Codec}

    [encode_*] produce a complete frame; [decode_*] take a complete frame
    and @raise Bad_frame on anything the encoder did not produce — and
    raise nothing else. *)

val encode_request : ?meta:meta -> request -> string
(** With [meta] = {!no_meta} (the default) the frame is byte-identical
    to the metadata-free PR 5 encoding; otherwise the body is wrapped in
    a metadata envelope (opcode 14) that pre-PR 9 decoders reject as an
    unknown opcode rather than misparse. *)

val decode_request : string -> request
(** Decodes and discards any metadata envelope. *)

val decode_request_meta : string -> meta * request
(** Like {!decode_request} but returns the request metadata ({!no_meta}
    when the frame carries no envelope).  @raise Bad_frame on a batch
    frame — this is exactly what a pre-batch server does with one, so a
    pipelining client talking to an old server gets a clean protocol
    error, never a misparse. *)

(** {2 Pipelining}

    A batch frame (opcode 15) carries N requests at once: a varint
    count, then each request's body — metadata envelope included — as a
    length-prefixed blob, bit-for-bit the body a singleton frame would
    have carried.  The server answers with N ordinary reply frames in
    request order (no batch reply envelope), so replies to a pipelined
    singleton are byte-identical to unpipelined ones.  Batches do not
    nest, and an empty batch is malformed. *)

type envelope = Single of meta * request | Batch of (meta * request) list

val encode_batch : (meta * request) list -> string
(** @raise Invalid_argument on an empty batch. *)

val decode_envelope : string -> envelope
(** Decode either frame shape.  A plain request frame decodes to
    [Single], exactly as {!decode_request_meta} would. *)

val encode_reply : reply -> string
val decode_reply : string -> reply

val max_frame : int
(** Hard bound on the body length (64 MB); both ends enforce it before
    trusting a length field. *)

val frame_size : string -> int option
(** Incremental framing for event-loop readers: given the {e prefix} of
    a frame stream, the total byte length (header + body + trailer) of
    the frame at its head, or [None] while fewer than the 9 header bytes
    have arrived.  @raise Bad_frame on a malformed header or an
    announced body over {!max_frame} — the stream can never resync, so
    the connection must be dropped. *)

(** {1 Frame transport} *)

val read_frame : Unix.file_descr -> string option
(** Read one complete frame.  [None] on clean EOF at a frame boundary.
    @raise Bad_frame on a malformed header, an oversized announced
    length, or EOF mid-frame.  Restarts on [EINTR]. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write the whole frame, looping over short writes. *)
