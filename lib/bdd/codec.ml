(* LEB128 writer and bounds-checked reader (see the mli). *)

let add_varint buf n =
  if n < 0 then invalid_arg "Codec.add_varint: negative integer";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.unsafe_chr n)
    else begin
      Buffer.add_char buf (Char.unsafe_chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let add_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let add_str buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let add_list buf add xs =
  add_varint buf (List.length xs);
  List.iter (add buf) xs

type reader = { s : string; mutable pos : int; fail : string -> exn }

let reader ?(pos = 0) ~fail s = { s; pos; fail }
let pos r = r.pos
let fail r fmt = Printf.ksprintf (fun m -> raise (r.fail m)) fmt
let left r = String.length r.s - r.pos

let byte r =
  if r.pos >= String.length r.s then fail r "truncated at byte %d" r.pos;
  let c = Char.code (String.unsafe_get r.s r.pos) in
  r.pos <- r.pos + 1;
  c

(* Eight bytes carry 56 bits.  The ninth holds the last six bits of a
   non-negative int and no continuation flag, so it is at most 0x3f:
   anything larger would set the sign bit or announce a tenth byte. *)
let varint r =
  let rec go shift acc =
    let b = byte r in
    if shift = 56 then
      if b > 0x3f then fail r "varint overflow at byte %d" (r.pos - 1)
      else acc lor (b lsl 56)
    else
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let count r ~min_bytes =
  let n = varint r in
  if n > left r / min_bytes then
    fail r "count %d of %d-byte items exceeds the %d bytes left" n min_bytes
      (left r);
  n

let take r n =
  if n > left r then fail r "%d bytes announced, %d left" n (left r);
  let s = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  s

let str r = take r (varint r)
let list r elt = List.init (count r ~min_bytes:1) (fun _ -> elt r)

let bool r =
  match byte r with
  | 0 -> false
  | 1 -> true
  | b -> fail r "bad boolean byte %d" b

let finish r = if left r <> 0 then fail r "%d trailing byte(s)" (left r)
