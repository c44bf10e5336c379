(** LZMA-style codec: large-window LZ77 + adaptive range coding.

    A 1 MiB-window, deep-chain LZ77 parse is entropy-coded with the
    adaptive binary models of real LZMA: a match/literal switch
    conditioned on the previous decision, literal bit-trees conditioned on
    the previous byte's high bits (lc = 3), a two-tier length coder, and a
    distance-slot tree followed by direct bits. Best ratio of the suite
    and the slowest — the xz/lzma end of the paper's Figure 3 spectrum. *)

val codec : Codec.t

val encode_payload : bytes -> bytes
val decode_payload_into :
  bytes -> src_off:int -> dst:bytes -> dst_off:int -> orig_len:int -> unit
(** Inverts {!encode_payload}: decodes the payload starting at
    [src_off] into [\[dst_off, dst_off + orig_len)] of [dst], confining
    every write to that window. The Xz container decodes through this
    after its own integrity check. *)
