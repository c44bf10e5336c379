type t = { name : string; vmm_init_ns : int; io_setup_ns : int }

let firecracker =
  { name = "firecracker"; vmm_init_ns = 4_600_000; io_setup_ns = 400_000 }

let qemu = { name = "qemu"; vmm_init_ns = 52_000_000; io_setup_ns = 3_000_000 }

let solo5 = { name = "solo5"; vmm_init_ns = 650_000; io_setup_ns = 50_000 }
