//! Process memory probe for the benchmark.
//!
//! hlsbench (the benchmark of record, `hlsbench/`) reports each run's peak
//! resident set size through [`peak_rss_kb`].

/// Peak resident set size of the current process in KiB (`VmHWM` from
/// `/proc/self/status`); 0 where procfs is unavailable.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_nonzero_on_linux() {
        assert!(peak_rss_kb() > 0, "VmHWM should parse on this platform");
    }
}
