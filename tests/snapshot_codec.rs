//! Snapshot codec oracle on the real workloads. A snapshot is a measured
//! encoding of machine state: the benchmark times
//! `MachineSnapshot::to_bytes`/`from_bytes` on machines mid-run, some of
//! them mounted on a published copy-on-write base. Nothing resumes from
//! the bytes, so this file pins only what that measurement relies on:
//!
//! * decoding and re-encoding gives back the *same bytes*, for every
//!   kernel and every Fig. 6 machine shape, fault plans and a Ring fabric
//!   included;
//! * truncated, flipped, trailing and hostile-length inputs are typed
//!   `WireError`s, never panics or huge allocations.
//!
//! That a copy of a machine continues bit-identically is pinned on
//! `Machine::clone` instead (`tests/snapshot_differential.rs`).

use glsc::kernels::{build_named, Dataset, Variant, Workload, KERNEL_NAMES};
use glsc::sim::{ChaosConfig, FaultPlan, Machine, MachineConfig, MachineSnapshot, NocConfig};
use glsc_wire::WireError;

const SHAPES: [(usize, usize); 4] = [(1, 1), (1, 4), (4, 1), (4, 4)];

/// How a machine gets its initial memory image.
#[derive(Clone, Copy, Debug)]
enum Image {
    /// Written word by word into private pages, as every job does.
    Applied,
    /// Mounted as a published copy-on-write base, as the benchmark's
    /// replay does.
    Published,
}

fn machine_for(w: &Workload, cfg: &MachineConfig, chaos: Option<u64>, image: Image) -> Machine {
    let mut m = Machine::new(cfg.clone());
    if let Some(seed) = chaos {
        m.mem_mut()
            .install_fault_plan(FaultPlan::new(ChaosConfig::from_seed(seed)));
    }
    match image {
        Image::Applied => w.image.apply(m.mem_mut().backing_mut()),
        Image::Published => m.mem_mut().backing_mut().set_base(w.image.publish()),
    }
    m.load_program(w.program.clone());
    m
}

/// Steps a machine to half its uninterrupted cycle count, encodes its
/// snapshot, and asserts that the decoded snapshot re-encodes to the same
/// bytes.
fn assert_codec_round_trips(
    kernel: &str,
    w: &Workload,
    cfg: &MachineConfig,
    chaos: Option<u64>,
    image: Image,
) {
    let what = format!(
        "{kernel} {}x{} chaos={chaos:?} {image:?}",
        cfg.cores, cfg.threads_per_core
    );
    let cycles = machine_for(w, cfg, chaos, image)
        .run()
        .unwrap_or_else(|e| panic!("{what}: {e}"))
        .cycles;
    let mut m = machine_for(w, cfg, chaos, image);
    for _ in 0..cycles / 2 {
        assert!(!m.step(), "{what}: halted before the snapshot point");
    }
    let bytes = m.snapshot().to_bytes();
    let decoded =
        MachineSnapshot::from_bytes(&bytes).unwrap_or_else(|e| panic!("{what}: decode: {e}"));
    assert!(
        decoded.to_bytes() == bytes,
        "{what}: decode then re-encode is not byte-identical"
    );
}

/// A HIP machine 200 cycles in, encoded.
fn hip_snapshot_bytes(tpc: usize) -> Vec<u8> {
    let cfg = MachineConfig::paper(1, tpc, 4);
    let w = build_named("HIP", Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
    let mut m = machine_for(&w, &cfg, None, Image::Applied);
    for _ in 0..200 {
        assert!(!m.step(), "HIP halted suspiciously early");
    }
    m.snapshot().to_bytes()
}

#[test]
fn codec_round_trips_every_kernel_and_shape() {
    for kernel in KERNEL_NAMES {
        for (cores, tpc) in SHAPES {
            let cfg = MachineConfig::paper(cores, tpc, 4);
            let w = build_named(kernel, Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
            assert_codec_round_trips(kernel, &w, &cfg, None, Image::Applied);
        }
        // The benchmark's replay mounts each image as a shared base; the
        // base travels by value and must re-encode identically too.
        let cfg = MachineConfig::paper(4, 4, 4);
        let w = build_named(kernel, Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
        assert_codec_round_trips(kernel, &w, &cfg, None, Image::Published);
    }
}

#[test]
fn codec_round_trips_base_variant() {
    // The Base variant exercises ll/sc retry loops instead of the GLSC
    // unit; its LSU/reservation state must round-trip too.
    for kernel in ["HIP", "GBC", "FS"] {
        let cfg = MachineConfig::paper(4, 4, 4);
        let w = build_named(kernel, Dataset::Tiny, Variant::Base, &cfg).expect("known kernel");
        assert_codec_round_trips(kernel, &w, &cfg, None, Image::Applied);
    }
}

#[test]
fn codec_round_trips_on_ring_with_active_fault_plan() {
    // A contended ring fabric plus an active fault plan puts in-flight
    // NoC reservations, chaos counters and live RNG state into the
    // snapshot — the hardest bytes to get bit-identical.
    for kernel in KERNEL_NAMES {
        let cfg = MachineConfig::paper(4, 4, 4)
            .with_noc(NocConfig::ring())
            .with_max_cycles(2_000_000_000)
            .with_watchdog_window(Some(5_000_000));
        let w = build_named(kernel, Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
        assert_codec_round_trips(kernel, &w, &cfg, Some(0x0C5EED), Image::Applied);
    }
}

#[test]
fn damage_and_trailing_bytes_are_typed_errors() {
    let bytes = hip_snapshot_bytes(4);
    assert!(MachineSnapshot::from_bytes(&bytes).is_ok());

    // Every truncation point is a torn frame, never a partial state.
    for cut in [
        0,
        1,
        3,
        4,
        12,
        bytes.len() / 2,
        bytes.len() - 8,
        bytes.len() - 1,
    ] {
        assert!(
            matches!(
                MachineSnapshot::from_bytes(&bytes[..cut]),
                Err(WireError::Eof { .. })
            ),
            "cut at {cut} was not a torn frame"
        );
    }

    // A flipped bit anywhere past the length prefix fails the checksum.
    for at in [4, bytes.len() / 2, bytes.len() - 9, bytes.len() - 1] {
        let mut flip = bytes.clone();
        flip[at] ^= 0x01;
        assert_eq!(
            MachineSnapshot::from_bytes(&flip).err(),
            Some(WireError::Invalid {
                at: bytes.len() - 8,
                what: "frame checksum"
            }),
            "bit flip at byte {at} was not caught"
        );
    }

    // Bytes after the one frame are refused, not ignored.
    let mut extra = bytes.clone();
    extra.extend_from_slice(b"xx");
    assert_eq!(
        MachineSnapshot::from_bytes(&extra).err(),
        Some(WireError::TrailingBytes { extra: 2 })
    );
}

#[test]
fn adversarial_length_prefixes_are_typed_rejections() {
    // A hostile (or torn) frame can claim any payload length it likes;
    // none of them may drive an allocation or a panic — the declared
    // length is checked against the bytes actually present before
    // anything else trusts it.
    let bytes = hip_snapshot_bytes(2);
    let payload_len = bytes.len() - 12;

    // Claims longer than the input are torn frames, instantly.
    for declared in [u32::MAX, u32::MAX - 11, 1 << 30, payload_len as u32 + 1] {
        let mut evil = bytes.clone();
        evil[..4].copy_from_slice(&declared.to_le_bytes());
        match MachineSnapshot::from_bytes(&evil) {
            Err(WireError::Eof { .. }) => {}
            other => panic!("declared length {declared:#x} decoded as {other:?}"),
        }
    }

    // Shorter claims cut the payload short: the checksum, read from the
    // middle of the real payload, does not match.
    for declared in [0u32, 1, payload_len as u32 - 1] {
        let mut short = bytes.clone();
        short[..4].copy_from_slice(&declared.to_le_bytes());
        match MachineSnapshot::from_bytes(&short) {
            Err(WireError::Invalid {
                what: "frame checksum",
                ..
            }) => {}
            other => panic!("declared length {declared:#x} decoded as {other:?}"),
        }
    }

    // The nastiest case: the frame is *valid* (length and checksum both
    // check out) but the payload inside is hostile — 0xFF floods every
    // inner length prefix with absurd values. The wire reader must bound
    // each inner length by the input remaining, so this is a typed
    // error, not an OOM.
    let hostile = glsc_wire::frame(&vec![0xFF; payload_len]);
    match MachineSnapshot::from_bytes(&hostile) {
        Err(WireError::Invalid { .. } | WireError::Eof { .. }) => {}
        other => panic!("hostile payload behind a valid checksum decoded as {other:?}"),
    }
}
