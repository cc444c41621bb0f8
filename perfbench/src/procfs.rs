//! Parsers for the `/proc` files the benchmark reads: process CPU time,
//! host steal, load average and peak resident memory. Parsing is kept
//! apart from reading so the tests can feed fixed text.

/// Clock ticks per second of the `/proc` time fields (`USER_HZ`, fixed at
/// 100 by the Linux user-space ABI).
pub const USER_HZ: f64 = 100.0;

/// A process's CPU time, from `/proc/<pid>/stat`.
/// For the whole process they count every thread, including threads that
/// already exited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProcStat {
    /// User-mode CPU time, in clock ticks.
    pub utime: u64,
    /// Kernel-mode CPU time, in clock ticks.
    pub stime: u64,
}

impl ProcStat {
    /// Counters accumulated between `earlier` and `self`.
    pub fn since(self, earlier: ProcStat) -> ProcStat {
        ProcStat {
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
        }
    }

    /// User plus kernel CPU time, in seconds.
    pub fn cpu_s(self) -> f64 {
        (self.utime + self.stime) as f64 / USER_HZ
    }
}

/// Parses a `/proc/<pid>/stat` line.
pub fn process_stat(stat: &str) -> Option<ProcStat> {
    // The command name (field 2) may hold spaces and parentheses; the
    // fields after its closing parenthesis start at field 3 (`state`).
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> Option<u64> { fields.get(n - 3)?.parse().ok() };
    Some(ProcStat { utime: field(14)?, stime: field(15)? })
}

/// Host-wide CPU ticks from the aggregate `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostTicks {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
    /// Ticks the hypervisor ran another guest while this one wanted a CPU.
    pub steal: u64,
}

impl HostTicks {
    /// Ticks elapsed between `self` and a later reading.
    pub fn since(self, earlier: HostTicks) -> HostTicks {
        HostTicks {
            total: self.total.saturating_sub(earlier.total),
            steal: self.steal.saturating_sub(earlier.steal),
        }
    }

    /// Steal as a share of all ticks (0 when no ticks elapsed).
    pub fn steal_share(self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.steal as f64 / self.total as f64
        }
    }
}

/// Parses the aggregate `cpu` line of `/proc/stat`. Guest time is already
/// inside user time, so only the first eight columns are summed.
pub fn host_ticks(stat: &str) -> Option<HostTicks> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let cols: Vec<u64> =
        line.split_whitespace().skip(1).map(|c| c.parse().ok()).collect::<Option<_>>()?;
    if cols.len() < 8 {
        return None;
    }
    Some(HostTicks { total: cols[..8].iter().sum(), steal: cols[7] })
}

/// The 1-, 5- and 15-minute load averages from `/proc/loadavg`.
pub fn loadavg(text: &str) -> Option<[f64; 3]> {
    let mut it = text.split_whitespace().map(|f| f.parse::<f64>().ok());
    Some([it.next()??, it.next()??, it.next()??])
}

/// A `kB` field of `/proc/<pid>/status`, such as `VmHWM` (peak resident
/// set) or `VmRSS`.
pub fn status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// This process's counters so far.
pub fn self_stat() -> Option<ProcStat> {
    process_stat(&read("/proc/self/stat")?)
}

/// The host's CPU tick counters now.
pub fn host_now() -> Option<HostTicks> {
    host_ticks(&read("/proc/stat")?)
}

/// The load averages now.
pub fn loadavg_now() -> Option<[f64; 3]> {
    loadavg(&read("/proc/loadavg")?)
}

/// This process's peak resident set so far, in KiB.
pub fn peak_rss_kb() -> Option<u64> {
    status_kb(&read("/proc/self/status")?, "VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_odd_command_names() {
        let line = "4242 (perf bench) (x)) S 1 4242 4242 0 -1 4194304 5360 0 0 0 \
                    731 58 0 0 20 0 3 0 123456 2168832 3310 18446744073709551615";
        let st = process_stat(line).unwrap();
        assert_eq!(st, ProcStat { utime: 731, stime: 58 });
        assert!((st.cpu_s() - 7.89).abs() < 1e-9);
        let later = ProcStat { utime: 800, stime: 60 };
        assert_eq!(later.since(st), ProcStat { utime: 69, stime: 2 });
        assert_eq!(process_stat("12 (short) S 1 2"), None);
        assert_eq!(process_stat("no parenthesis"), None);
    }

    #[test]
    fn host_steal_is_the_eighth_column() {
        let text = "cpu  146671 0 8131 245933 228 0 658 13735 0 0\n\
                    cpu0 73000 0 4000 120000 100 0 300 7000 0 0\nintr 1 2 3\n";
        let t = host_ticks(text).unwrap();
        assert_eq!(t.steal, 13735);
        assert_eq!(t.total, 146671 + 8131 + 245933 + 228 + 658 + 13735);
        let later = HostTicks { total: t.total + 200, steal: t.steal + 50 };
        let d = later.since(t);
        assert_eq!((d.total, d.steal), (200, 50));
        assert!((d.steal_share() - 0.25).abs() < 1e-12);
        assert_eq!(HostTicks::default().steal_share(), 0.0);
        assert_eq!(host_ticks("cpu  1 2 3\n"), None, "too few columns");
        assert_eq!(host_ticks("cpu0 1 2 3 4 5 6 7 8\n"), None, "per-CPU lines are not the total");
    }

    #[test]
    fn loadavg_and_status_fields_parse() {
        assert_eq!(loadavg("0.23 0.69 0.79 1/85 11788\n"), Some([0.23, 0.69, 0.79]));
        assert_eq!(loadavg("0.23 x"), None);
        let status =
            "Name:\tperfbench\nVmPeak:\t  400000 kB\nVmHWM:\t  218112 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(status_kb(status, "VmHWM"), Some(218_112));
        assert_eq!(status_kb(status, "VmRSS"), Some(1000));
        assert_eq!(status_kb(status, "VmSwap"), None);
        assert_eq!(status_kb("VmHWMx:\t5 kB\n", "VmHWM"), None, "keys match whole");
    }

    #[test]
    fn live_proc_files_parse_on_linux() {
        assert!(self_stat().is_some());
        assert!(host_now().is_some());
        assert!(loadavg_now().is_some());
        assert!(peak_rss_kb().unwrap() > 0);
    }
}
