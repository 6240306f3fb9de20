//! Durable snapshot codec oracle on the real workloads: the on-disk
//! envelope (`MachineSnapshot::to_bytes`/`from_bytes`) must be a perfect
//! round trip for every kernel and every Fig. 6 machine shape — the
//! decoded snapshot re-encodes to the *same bytes*, and a machine
//! hydrated from the decoded bytes finishes bit-identically to an
//! uninterrupted run. Also drives a `SlicedRun` checkpoint loop (encode,
//! decode and rebuild the machine at every pause) and pins the typed
//! rejection of version skew and checksum damage.

use glsc::kernels::{build_named, Dataset, Variant, Workload, KERNEL_NAMES};
use glsc::sim::{
    ChaosConfig, FaultPlan, Machine, MachineConfig, MachineSnapshot, NocConfig, SlicedRun,
    SnapshotCodecError, SNAPSHOT_FORMAT_VERSION,
};

const SHAPES: [(usize, usize); 4] = [(1, 1), (1, 4), (4, 1), (4, 4)];

fn machine_for(w: &Workload, cfg: &MachineConfig, chaos: Option<u64>) -> Machine {
    let mut m = Machine::new(cfg.clone());
    if let Some(seed) = chaos {
        m.mem_mut()
            .install_fault_plan(FaultPlan::new(ChaosConfig::from_seed(seed)));
    }
    w.image.apply(m.mem_mut().backing_mut());
    m.load_program(w.program.clone());
    m
}

/// Runs to completion uninterrupted, then re-runs with an interrupt at
/// half the cycle count, pushes the snapshot through the byte codec, and
/// finishes on a machine hydrated from the *decoded* bytes. Asserts the
/// envelope round trip is bit-identical and the final report matches.
fn assert_codec_resumable(kernel: &str, w: &Workload, cfg: &MachineConfig, chaos: Option<u64>) {
    let run = |m: &mut Machine| m.run().unwrap_or_else(|e| panic!("{kernel}: {e}"));
    let mut baseline_m = machine_for(w, cfg, chaos);
    let baseline = run(&mut baseline_m);

    let mut interrupted = machine_for(w, cfg, chaos);
    for _ in 0..baseline.cycles / 2 {
        if interrupted.step() {
            panic!("{kernel}: halted before the snapshot point");
        }
    }
    let bytes = interrupted.snapshot().to_bytes();
    let decoded = MachineSnapshot::from_bytes(&bytes)
        .unwrap_or_else(|e| panic!("{kernel}: decode failed: {e}"));
    assert_eq!(
        decoded.to_bytes(),
        bytes,
        "{kernel} {}x{} chaos={chaos:?}: envelope round trip not bit-identical",
        cfg.cores,
        cfg.threads_per_core
    );

    let mut resumed_m = Machine::from_snapshot(&decoded);
    let resumed = run(&mut resumed_m);
    assert_eq!(
        resumed, baseline,
        "{kernel} {}x{} chaos={chaos:?}: run resumed from decoded bytes diverged",
        cfg.cores, cfg.threads_per_core
    );
    (w.validate)(resumed_m.mem().backing())
        .unwrap_or_else(|e| panic!("{kernel}: decoded-resume run failed validation: {e}"));
}

#[test]
fn codec_round_trips_every_kernel_and_shape() {
    for kernel in KERNEL_NAMES {
        for (cores, tpc) in SHAPES {
            let cfg = MachineConfig::paper(cores, tpc, 4);
            let w = build_named(kernel, Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
            assert_codec_resumable(kernel, &w, &cfg, None);
        }
    }
}

#[test]
fn codec_round_trips_base_variant() {
    // The Base variant exercises ll/sc retry loops instead of the GLSC
    // unit; its LSU/reservation state must survive the codec too.
    for kernel in ["HIP", "GBC", "FS"] {
        let cfg = MachineConfig::paper(4, 4, 4);
        let w = build_named(kernel, Dataset::Tiny, Variant::Base, &cfg).expect("known kernel");
        assert_codec_resumable(kernel, &w, &cfg, None);
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
        assert_codec_resumable(kernel, &w, &cfg, Some(0x0C5EED));
    }
}

#[test]
fn sliced_checkpoint_loop_matches_solo_run() {
    // A checkpointing driver in miniature: advance in fixed cycle
    // budgets via `run_for`, and at every pause round-trip the machine
    // through the byte codec and rebuild it from the decoded bytes. The
    // final report must match an uninterrupted run.
    for kernel in ["HIP", "TMS", "GBC"] {
        let cfg = MachineConfig::paper(2, 2, 4);
        let w = build_named(kernel, Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");

        let mut solo = machine_for(&w, &cfg, None);
        let baseline = solo.run().unwrap_or_else(|e| panic!("{kernel}: {e}"));

        let mut m = machine_for(&w, &cfg, None);
        let mut run = SlicedRun::new(&m);
        let mut checkpoints = 0u32;
        let report = loop {
            match m
                .run_for(&mut run, 500)
                .unwrap_or_else(|e| panic!("{kernel}: {e}"))
            {
                Some(report) => break report,
                None => {
                    let bytes = m.snapshot().to_bytes();
                    let decoded = MachineSnapshot::from_bytes(&bytes)
                        .unwrap_or_else(|e| panic!("{kernel}: checkpoint decode failed: {e}"));
                    m = Machine::from_snapshot(&decoded);
                    run = SlicedRun::new(&m);
                    checkpoints += 1;
                }
            }
        };
        assert!(checkpoints > 2, "{kernel}: budget too large, loop vacuous");
        assert_eq!(
            report, baseline,
            "{kernel}: checkpoint-loop run diverged from solo run"
        );
        (w.validate)(m.mem().backing())
            .unwrap_or_else(|e| panic!("{kernel}: checkpoint-loop run failed validation: {e}"));
    }
}

#[test]
fn version_skew_and_damage_are_typed_errors() {
    let cfg = MachineConfig::paper(1, 4, 4);
    let w = build_named("HIP", Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
    let mut m = machine_for(&w, &cfg, None);
    for _ in 0..200 {
        assert!(!m.step(), "HIP halted suspiciously early");
    }
    let bytes = m.snapshot().to_bytes();

    // A future format version is refused with the version it found, so
    // recovery can log it and fall back to a fresh run.
    let mut skew = bytes.clone();
    let next = (SNAPSHOT_FORMAT_VERSION + 1).to_le_bytes();
    skew[8..12].copy_from_slice(&next);
    match MachineSnapshot::from_bytes(&skew) {
        Err(SnapshotCodecError::VersionMismatch { found }) => {
            assert_eq!(found, SNAPSHOT_FORMAT_VERSION + 1);
        }
        other => panic!("version skew decoded as {other:?}"),
    }

    // Flip one bit in the middle of the payload: checksum mismatch.
    let mut flip = bytes.clone();
    let mid = bytes.len() / 2;
    flip[mid] ^= 0x01;
    assert!(
        matches!(
            MachineSnapshot::from_bytes(&flip),
            Err(SnapshotCodecError::ChecksumMismatch { .. })
        ),
        "bit flip at byte {mid} was not caught"
    );

    // Every truncation point is a typed rejection, never a partial state.
    for frac in [4u64, 2, 1] {
        let cut = (bytes.len() as u64 * (frac.min(3)) / (frac + 1)) as usize;
        let err = MachineSnapshot::from_bytes(&bytes[..cut.min(bytes.len() - 1)])
            .expect_err("truncated snapshot decoded");
        assert!(
            matches!(
                err,
                SnapshotCodecError::Truncated | SnapshotCodecError::ChecksumMismatch { .. }
            ),
            "cut {cut}: unexpected error {err:?}"
        );
    }
}

#[test]
fn adversarial_length_prefixes_are_typed_rejections() {
    // A hostile (or torn) envelope can claim any payload length it
    // likes; none of them may drive an allocation or a panic — the
    // declared length is checked against the bytes actually present
    // before anything else trusts it.
    let cfg = MachineConfig::paper(1, 2, 4);
    let w = build_named("HIP", Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
    let mut m = machine_for(&w, &cfg, None);
    for _ in 0..200 {
        assert!(!m.step(), "HIP halted suspiciously early");
    }
    let bytes = m.snapshot().to_bytes();

    // Hostile declared lengths in the header (bytes 12..20). u64::MAX
    // and MAX-19 overflow the checked framing arithmetic; 1<<60 is a
    // "plausible" huge claim; the exact buffer length double-counts the
    // header+trailer. All must be Truncated, instantly.
    for declared in [u64::MAX, u64::MAX - 19, 1u64 << 60, bytes.len() as u64] {
        let mut evil = bytes.clone();
        evil[12..20].copy_from_slice(&declared.to_le_bytes());
        match MachineSnapshot::from_bytes(&evil) {
            Err(SnapshotCodecError::Truncated) => {}
            other => panic!("declared length {declared:#x} decoded as {other:?}"),
        }
    }

    // A zero length leaves the real payload dangling past the claimed
    // end: typed as trailing garbage, not silently ignored.
    let mut zero = bytes.clone();
    zero[12..20].copy_from_slice(&0u64.to_le_bytes());
    match MachineSnapshot::from_bytes(&zero) {
        Err(SnapshotCodecError::TrailingBytes { extra }) => {
            assert_eq!(extra, bytes.len() - 28, "unexpected trailing-byte count");
        }
        other => panic!("zero length decoded as {other:?}"),
    }

    // The nastiest case: the envelope is *valid* (length and checksum
    // both check out) but the payload inside is hostile — 0xFF floods
    // every inner length prefix with absurd values. The wire reader
    // must bound each inner length by the input remaining, so this is
    // a typed Malformed, not an OOM.
    let mut inner = bytes.clone();
    let n = inner.len();
    for b in &mut inner[20..n - 8] {
        *b = 0xFF;
    }
    let checksum = glsc_wire::fnv64(&inner[..n - 8]);
    inner[n - 8..].copy_from_slice(&checksum.to_le_bytes());
    match MachineSnapshot::from_bytes(&inner) {
        Err(SnapshotCodecError::Malformed(_)) => {}
        other => panic!("hostile payload behind a valid checksum decoded as {other:?}"),
    }
}
