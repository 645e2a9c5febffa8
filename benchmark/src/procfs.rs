//! What the kernel says about this process: peak resident memory and
//! CPU time, read from `/proc/self`.

/// Kernel clock ticks per second in `/proc/self/stat`. `USER_HZ` is 100
/// on every Linux ABI this repository builds for; reading `sysconf`
/// would need a libc binding the offline build does not have.
const TICKS_PER_SECOND: f64 = 100.0;

/// `VmHWM` (peak resident set) in KiB from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line.split_whitespace().skip(1);
    let value = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(value)
}

/// `(utime, stime)` in clock ticks from the text of `/proc/self/stat`.
/// The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // rest starts at field 3 (state); utime and stime are fields 14, 15
    let mut fields = rest.split_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = parse_vm_hwm_kib(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

/// User plus system CPU seconds this process (all threads) has used.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    let (utime, stime) = parse_cpu_ticks(&stat).ok_or("unparseable /proc/self/stat")?;
    Ok((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// CPUs this process may run on.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_found_among_other_lines() {
        let status = "Name:\tbench\nVmPeak:\t  900000 kB\nVmHWM:\t  512340 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(512_340));
        assert_eq!(parse_vm_hwm_kib("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    731 19 0 0 20 0 2 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some((731, 19)));
        assert_eq!(parse_cpu_ticks("1 (x) R 1 2"), None);
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(cpus() >= 1);
    }
}
