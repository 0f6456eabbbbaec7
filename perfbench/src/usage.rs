//! Process CPU time, from `getrusage(2)`, and peak resident memory over a
//! chosen stretch of the run, from `/proc/self`.

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
const RUSAGE_WORDS: usize = 18;
const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut i64) -> i32;
}

/// User plus system CPU time of every thread so far, in seconds.
pub fn cpu_s() -> f64 {
    let mut words = [0i64; RUSAGE_WORDS];
    // SAFETY: `words` is as large as `struct rusage` on 64-bit Linux and
    // suitably aligned for it; getrusage writes only that struct.
    let status = unsafe { getrusage(RUSAGE_SELF, words.as_mut_ptr()) };
    assert_eq!(status, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let seconds = |sec: i64, usec: i64| sec as f64 + usec as f64 / 1e6;
    seconds(words[0], words[1]) + seconds(words[2], words[3])
}

/// Reset the peak resident set size (`VmHWM`) to the current one, so
/// [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn cpu_time_grows_with_work() {
        let before = super::cpu_s();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(super::cpu_s() > before);
    }

    #[test]
    fn peak_rss_follows_a_reset() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let with = super::peak_rss_mb().expect("VmHWM");
        drop(big);
        super::reset_peak_rss().expect("clear_refs");
        let without = super::peak_rss_mb().expect("VmHWM");
        assert!(with > 64.0 && without < with - 32.0, "{with} -> {without}");
    }
}
