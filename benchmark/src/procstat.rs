//! Process figures read from `/proc`: CPU time and peak resident set.
//!
//! Server and generator share one process, so the server's CPU is the
//! process total minus what the generator threads report for themselves.

/// Kernel clock ticks per second in `/proc/*/stat`. `USER_HZ` is 100 on
/// every Linux ABI Rust targets; std has no `sysconf` to ask with.
const TICKS_PER_SEC: f64 = 100.0;

/// utime + stime, in seconds, from a `stat` file's text.
fn cpu_secs_from_stat(stat: &str) -> Option<f64> {
    // The command name may hold spaces and parentheses; fields resume
    // after the last ')': state is field 3, utime 14, stime 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// CPU seconds (user + system) of the whole process, all threads.
#[must_use]
pub fn process_cpu_secs() -> Option<f64> {
    cpu_secs_from_stat(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// CPU seconds (user + system) of the calling thread.
#[must_use]
pub fn thread_cpu_secs() -> Option<f64> {
    cpu_secs_from_stat(&std::fs::read_to_string("/proc/thread-self/stat").ok()?)
}

/// Peak resident set (`VmHWM`) of this process in megabytes.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_awkward_command_names() {
        let stat = "42 (a b) c) R 1 42 42 0 -1 4194304 103 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(cpu_secs_from_stat(stat), Some(3.0));
        assert_eq!(cpu_secs_from_stat("garbage"), None);
    }

    #[test]
    fn proc_is_readable_here() {
        assert!(process_cpu_secs().is_some());
        assert!(thread_cpu_secs().is_some());
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
