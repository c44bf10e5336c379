(** VMM cost profiles.

    §2.2 cross-checks the Firecracker findings on QEMU: "due to
    differences in the implementations ... the time spent in the
    hypervisor varies", but the conclusions hold. A profile captures the
    implementation-dependent constants; everything else (loading,
    randomization, guest behaviour) is shared. *)

type t = {
  name : string;
  vmm_init_ns : int;
      (** process start to ready-to-load: device model + memory setup.
          Firecracker ≈ 5 ms; QEMU ≈ 55 ms (full PC machine model). *)
  io_setup_ns : int;  (** virtio/MMIO region wiring before entry *)
}

val firecracker : t
val qemu : t

val solo5 : t
(** A ukvm-style unikernel monitor (§6/§7): almost no device model and a
    sub-millisecond path to VM entry. *)
