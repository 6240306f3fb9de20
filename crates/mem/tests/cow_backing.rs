//! The copy-on-write backing layer at the memory-system level (DESIGN.md
//! §13): a shared [`glsc_mem::BackingBase`] must compose with chaos
//! jitter and snapshot/restore.

use glsc_mem::{Backing, ChaosConfig, FaultPlan, MemConfig, MemOp, MemorySystem};
use std::sync::Arc;

fn sys(cores: usize) -> MemorySystem {
    MemorySystem::new(MemConfig::default(), cores, 4)
}

/// DRAM jitter perturbs timing only; the functional CoW image — shared
/// base and private overlay — must be byte-identical with and without the
/// fault plan, and the base must stay pristine under both.
#[test]
fn cow_backing_is_untouched_by_dram_jitter() {
    let mut img = Backing::new();
    for i in 0..64u64 {
        img.write_u32(0x1000 + 4 * i, (i * 3 + 1) as u32);
    }
    let base = img.freeze();

    let run = |chaos: bool| -> (Vec<u32>, usize) {
        let mut m = sys(1);
        m.backing_mut().set_base(Arc::clone(&base));
        if chaos {
            m.install_fault_plan(FaultPlan::new(ChaosConfig {
                period: 1,
                dram_jitter_prob: 1.0,
                dram_jitter_max: 32,
                ..ChaosConfig::from_seed(3)
            }));
        }
        let mut now = 0;
        for i in 0..64u64 {
            let addr = 0x1000 + 4 * i;
            let r = m.access(0, 0, MemOp::Load, addr, now);
            now = r.done;
            let v = m.backing().read_u32(addr);
            m.backing_mut().write_u32(addr, v + 1);
        }
        if chaos {
            let st = m.chaos_stats().expect("plan installed");
            assert!(st.jitter_events > 0, "jitter must actually fire");
        }
        (
            m.backing().read_u32_vec(0x1000, 64),
            m.backing().resident_pages(),
        )
    };

    let (quiet, quiet_pages) = run(false);
    let (noisy, noisy_pages) = run(true);
    assert_eq!(quiet, noisy, "jitter must not change functional values");
    assert_eq!(quiet_pages, noisy_pages);
    // The shared base still holds the original values.
    let mut probe = Backing::new();
    probe.set_base(base);
    assert_eq!(probe.read_u32(0x1000), 1);
}

/// Snapshot/restore must capture the CoW overlay exactly: private pages
/// deep-copied, base remounted, later writes discarded on restore.
#[test]
fn snapshot_restore_with_cow_resident_pages() {
    let mut img = Backing::new();
    img.write_u32(0x2000, 10);
    img.write_u32(0x3000, 20);
    let base = img.freeze();

    let mut m = sys(1);
    m.backing_mut().set_base(Arc::clone(&base));
    // Materialize one page via CoW, leave the other untouched.
    m.backing_mut().write_u32(0x2000, 11);
    let _ = m.access(0, 0, MemOp::Load, 0x2000, 0);
    let snap = m.snapshot();

    // Diverge: touch both pages and more timing state.
    m.backing_mut().write_u32(0x2000, 99);
    m.backing_mut().write_u32(0x3000, 99);
    let _ = m.access(0, 0, MemOp::Store, 0x3000, 500);

    m.restore(&snap);
    assert_eq!(m.backing().read_u32(0x2000), 11, "private page restored");
    assert_eq!(m.backing().read_u32(0x3000), 20, "fallthrough restored");
    assert_eq!(m.backing().resident_pages(), 1);
    assert_eq!(m.backing().base_pages(), 2);
    // And the restored system evolves independently of the snapshot.
    m.backing_mut().write_u32(0x3000, 21);
    assert_eq!(m.backing().read_u32(0x3000), 21);
    let mut probe = Backing::new();
    probe.set_base(base);
    assert_eq!(probe.read_u32(0x3000), 20);
}
