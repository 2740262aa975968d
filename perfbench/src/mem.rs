//! Resident-memory readings of this process from `/proc/self/status`.

/// A `kB` field such as `VmHWM` or `VmRSS` of a `/proc/<pid>/status` text,
/// in MB (10^6 bytes).
pub fn status_field_mb(status: &str, field: &str) -> Option<f64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let kb: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(kb as f64 * 1024.0 / 1e6)
    })
}

fn own_field_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .unwrap_or_else(|err| panic!("cannot read /proc/self/status: {err}"));
    status_field_mb(&status, field)
        .unwrap_or_else(|| panic!("/proc/self/status has no {field} field"))
}

/// The process's resident-set high-water mark, MB.
pub fn peak_rss_mb() -> f64 {
    own_field_mb("VmHWM")
}

/// The process's current resident set, MB.
pub fn rss_mb() -> f64 {
    own_field_mb("VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tperfbench\nVmPeak:\t  300000 kB\n\
                          VmHWM:\t  123456 kB\nVmRSS:\t   65536 kB\nThreads:\t1\n";

    #[test]
    fn parses_kb_fields() {
        assert_eq!(
            status_field_mb(STATUS, "VmHWM"),
            Some(123_456.0 * 1024.0 / 1e6)
        );
        assert_eq!(
            status_field_mb(STATUS, "VmRSS"),
            Some(65_536.0 * 1024.0 / 1e6)
        );
        assert_eq!(status_field_mb(STATUS, "VmSwap"), None);
        // A field name that is only a prefix of another does not match.
        assert_eq!(status_field_mb(STATUS, "VmH"), None);
        assert_eq!(status_field_mb(STATUS, "Threads"), None);
    }

    #[test]
    fn reads_this_process() {
        let peak = peak_rss_mb();
        assert!(peak > 0.0 && peak >= rss_mb() * 0.5);
    }
}
