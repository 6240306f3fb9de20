//! Corruption drill for the durable job store: a cache entry that was
//! torn (truncated), bit-rotted or forged on disk must degrade to a
//! logged cache miss — the job simply re-runs — never a panic, a huge
//! allocation or, worse, a wrong report served as a result.

use glsc_bench::codec::encode_report;
use glsc_bench::store::job_key;
use glsc_bench::JobStore;
use glsc_kernels::{build_named, run_workload, Dataset, Variant};
use glsc_sim::{MachineConfig, RunReport};
use std::fs;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "glsc-store-corruption-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A resuming store holding one clean entry for `kernel` on a 1x2
/// machine: the store, the entry's key and report, and its bytes.
fn stored(tag: &str, kernel: &str) -> (JobStore, String, RunReport, Vec<u8>) {
    let store = JobStore::at(tmp_dir(tag), true);
    let cfg = MachineConfig::paper(1, 2, 4);
    let w = build_named(kernel, Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
    let report = run_workload(&w, &cfg).unwrap().report;
    let key = job_key(&[kernel, "T", "glsc"], 0xABCD, 0x1234);
    store.save(&key, &report);
    let pristine = fs::read(store.path_for(&key).unwrap()).unwrap();
    assert_eq!(store.load(&key).as_ref(), Some(&report));
    (store, key, report, pristine)
}

#[test]
fn every_truncation_and_byte_flip_is_a_miss() {
    let (store, key, report, pristine) = stored("torn", "HIP");
    let path = store.path_for(&key).unwrap();

    // A torn write at every length, from empty to one byte short.
    for cut in 0..pristine.len() {
        fs::write(&path, &pristine[..cut]).unwrap();
        assert_eq!(store.load(&key), None, "cut at {cut} served a report");
    }

    // Every byte flipped, both in its lowest bit (which keeps an ASCII
    // digit a digit) and in all bits.
    for i in 0..pristine.len() {
        for mask in [0x01, 0xFF] {
            let mut flipped = pristine.clone();
            flipped[i] ^= mask;
            fs::write(&path, &flipped).unwrap();
            assert_eq!(
                store.load(&key),
                None,
                "byte {i} ^ {mask:#04x} served a report"
            );
        }
    }

    // After any corruption, a re-save repairs the entry in place.
    store.save(&key, &report);
    assert_eq!(store.load(&key).as_ref(), Some(&report));
    let _ = fs::remove_dir_all(store.dir().unwrap());
}

#[test]
fn hostile_length_prefix_is_a_miss_not_an_allocation() {
    // A payload whose `threads` length prefix (right after the u64
    // `cycles`) claims u64::MAX elements, in a frame whose checksum is
    // recomputed to match: the frame is intact, so only the reader's
    // length check stands between the claim and a huge allocation.
    let (store, key, report, _) = stored("hostile", "FS");
    let mut payload = encode_report(&report);
    assert_eq!(
        payload[8..16],
        (report.threads.len() as u64).to_le_bytes(),
        "threads prefix moved"
    );
    payload[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    let path = store.path_for(&key).unwrap();
    fs::write(&path, glsc_wire::frame(&payload)).unwrap();
    assert_eq!(store.load(&key), None, "hostile `threads` length served");

    store.save(&key, &report);
    assert_eq!(store.load(&key).as_ref(), Some(&report));
    let _ = fs::remove_dir_all(store.dir().unwrap());
}

#[test]
fn empty_entry_is_a_miss() {
    // A crash between create and first write on a non-atomic filesystem.
    let (store, key, _, _) = stored("empty", "GBC");
    fs::write(store.path_for(&key).unwrap(), b"").unwrap();
    assert_eq!(store.load(&key), None, "empty entry served a report");
    let _ = fs::remove_dir_all(store.dir().unwrap());
}

#[test]
fn resume_off_never_reads_even_valid_entries() {
    let dir = tmp_dir("noresume");
    let store = JobStore::at(dir.clone(), false);
    let cfg = MachineConfig::paper(1, 1, 4);
    let w = build_named("GBC", Dataset::Tiny, Variant::Base, &cfg).expect("known kernel");
    let out = run_workload(&w, &cfg).unwrap();
    let key = job_key(&["GBC", "T", "base"], 1, 2);
    store.save(&key, &out.report);
    assert_eq!(store.load(&key), None, "load with resume off");
    let _ = fs::remove_dir_all(&dir);
}
