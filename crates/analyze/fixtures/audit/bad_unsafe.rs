// Deliberately unhygienic source used by the hygiene negative-path test.
// This file lives under `fixtures/` so the workspace audit skips it; the
// test feeds it to the audit directly and asserts every rule fires.

static mut HITS: u64 = 0;

pub fn spawn_off() {
    let h = std::thread::spawn(|| {});
    let _ = h.join();
}

pub fn time_it() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn report_metric(t: f64) {
    println!("kernel took {t}s");
}

pub fn sneaky_intrinsics() {
    let _four_wide = core::arch::x86_64::_mm256_setzero_pd;
}
