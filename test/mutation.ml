(* Byte-level damage shared by the decoder fuzzers: a flipped byte, a
   truncation, or a length-like 16-, 32- or 64-bit field overwritten with
   an edge value.  The 64-bit edges include values outside OCaml's int
   range (bit 63 over a small value), which a decoder must reject rather
   than truncate. *)

type t =
  | Flip of int * int
  | Truncate of int
  | Set_u16 of int * int
  | Set_u32 of int * int
  | Set_i64 of int * int64

let gen =
  let open QCheck.Gen in
  let edge = oneofl [ 0; 1; 0xFF; 0xFFFF; 0x10000; 0x7FFFFFFF; 0xFFFFFFFF; 4096; 4097 ] in
  let edge64 =
    oneofl
      [
        0L; 1L; -1L; 16L; 4096L; 4097L; Int64.of_int max_int; Int64.of_int min_int;
        Int64.max_int; Int64.min_int; Int64.logor Int64.min_int 16L;
      ]
  in
  frequency
    [
      (3, map2 (fun p x -> Flip (p, x)) nat (int_range 1 255));
      (1, map (fun n -> Truncate n) nat);
      (2, map2 (fun p v -> Set_u32 (p, v)) nat (oneof [ edge; int_bound 0xFFFF ]));
      (2, map2 (fun p v -> Set_u16 (p, v)) nat (oneof [ edge; int_bound 0xFF ]));
      (2, map2 (fun p v -> Set_i64 (p, v)) nat edge64);
    ]

(** [muts] applied in order to a copy of [b]; positions wrap modulo the
    current length. *)
let apply b muts =
  List.fold_left
    (fun b m ->
      let len = Bytes.length b in
      if len = 0 then b
      else
        match m with
        | Flip (p, x) ->
          let p = p mod len in
          Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor x));
          b
        | Truncate n -> Bytes.sub b 0 (n mod len)
        | Set_u32 (p, v) when len >= 4 ->
          Bytes.set_int32_le b (p mod (len - 3)) (Int32.of_int v);
          b
        | Set_u16 (p, v) when len >= 2 ->
          Bytes.set_uint16_le b (p mod (len - 1)) (v land 0xFFFF);
          b
        | Set_i64 (p, v) when len >= 8 ->
          Bytes.set_int64_le b (p mod (len - 7)) v;
          b
        | Set_u32 _ | Set_u16 _ | Set_i64 _ -> b)
    (Bytes.copy b) muts

let to_string muts =
  String.concat "; "
    (List.map
       (function
         | Flip (p, x) -> Printf.sprintf "flip %d^%d" p x
         | Truncate n -> Printf.sprintf "truncate %d" n
         | Set_u32 (p, v) -> Printf.sprintf "u32 @%d=%d" p v
         | Set_u16 (p, v) -> Printf.sprintf "u16 @%d=%d" p v
         | Set_i64 (p, v) -> Printf.sprintf "i64 @%d=%Ld" p v)
       muts)
