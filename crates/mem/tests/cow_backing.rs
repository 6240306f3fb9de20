//! The copy-on-write backing layer at the memory-system level (DESIGN.md
//! §13): a shared [`glsc_mem::BackingBase`] must compose with chaos
//! jitter and with cloning the memory system.

use glsc_mem::{AccessResult, Backing, ChaosConfig, FaultPlan, MemConfig, MemOp, MemorySystem};
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

/// A clone must copy the CoW overlay exactly: private pages deep-copied,
/// the base shared. Driven through the same accesses afterwards, the clone
/// and the original must agree on every result, every counter and every
/// word, and a write to one must stay invisible to the other and to the
/// base.
#[test]
fn clone_with_cow_resident_pages() {
    let mut img = Backing::new();
    img.write_u32(0x2000, 10);
    img.write_u32(0x3000, 20);
    let base = img.freeze();

    let mut m = sys(2);
    m.backing_mut().set_base(Arc::clone(&base));
    m.install_fault_plan(FaultPlan::new(ChaosConfig::aggressive(5)));
    // Materialize one page via CoW, leave the other untouched.
    m.backing_mut().write_u32(0x2000, 11);
    let _ = m.access(0, 0, MemOp::Load, 0x2000, 0);
    let mut copy = m.clone();
    assert_eq!(copy.backing().resident_pages(), 1);
    assert_eq!(copy.backing().base_pages(), 2);

    let drive = |sys: &mut MemorySystem| -> Vec<AccessResult> {
        let mut now = 100;
        let mut results = Vec::new();
        for (core, op, addr) in [
            (1, MemOp::Load, 0x3000),
            (0, MemOp::LoadLinked, 0x3000),
            (1, MemOp::Store, 0x3000),
            (0, MemOp::StoreCond, 0x3000),
            (1, MemOp::Load, 0x2000),
        ] {
            let r = sys.access(core, 0, op, addr, now);
            now = r.done + 1;
            results.push(r);
        }
        let v = sys.backing().read_u32(0x3000);
        sys.backing_mut().write_u32(0x3000, v + 1);
        results
    };
    assert_eq!(
        drive(&mut m),
        drive(&mut copy),
        "the clone answered differently"
    );
    assert_eq!(m.stats(), copy.stats(), "the clone counted differently");
    assert_eq!(m.chaos_stats(), copy.chaos_stats());
    for addr in [0x2000, 0x3000] {
        assert_eq!(m.backing().read_u32(addr), copy.backing().read_u32(addr));
    }

    // Diverge: writes to the original reach neither the clone nor the base.
    m.backing_mut().write_u32(0x2000, 99);
    m.backing_mut().write_u32(0x3000, 99);
    assert_eq!(copy.backing().read_u32(0x2000), 11, "private page copied");
    assert_eq!(copy.backing().read_u32(0x3000), 21, "own page materialized");
    let mut probe = Backing::new();
    probe.set_base(base);
    assert_eq!(probe.read_u32(0x2000), 10);
    assert_eq!(probe.read_u32(0x3000), 20);
}
