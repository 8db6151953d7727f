//! Running benchmark phases in child processes that can be killed at a
//! deadline, and reading their peak memory.
//!
//! Every child is started in a process group of its own, so a deadline kill
//! takes down everything it spawned (the fleet coordinator's workers
//! included) in one signal.

use gauntlet_telemetry::json::{self, Json};
use std::io::Read;
use std::os::unix::process::CommandExt;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, signal: i32) -> i32;
    fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
}

const SIGKILL: i32 = 9;
const RUSAGE_CHILDREN: i32 = -1;

/// How a child phase ended.
pub struct ChildRun {
    /// Wall time from spawn to exit (or to the kill).
    pub wall: Duration,
    /// The JSON object the child printed as its last stdout line; `None`
    /// when it was killed at the deadline or exited without one.
    pub result: Option<Json>,
    /// Everything the child printed on stdout.
    pub text: String,
}

/// Runs this executable with `args` in a new process group and waits for it
/// at most `deadline`; on expiry the whole group is killed and reaped.
pub fn run(args: &[String], deadline: Duration) -> ChildRun {
    let exe = std::env::current_exe().expect("current executable path");
    let started = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .process_group(0)
        .spawn()
        .expect("spawn benchmark child");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let pid = child.id();
    let (exited, exit) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = exited.send(child.wait());
    });
    let killed = match exit.recv_timeout(deadline) {
        Ok(_) => false,
        Err(_) => {
            kill_group(pid);
            let _ = exit.recv();
            true
        }
    };
    let wall = started.elapsed();
    waiter.join().expect("child waiter");
    if killed {
        wait_group_gone(pid);
    }
    let text = reader.join().expect("stdout reader");
    let result = if killed {
        None
    } else {
        text.lines().last().and_then(|line| json::parse(line).ok())
    };
    ChildRun { wall, result, text }
}

fn kill_group(pgid: u32) {
    // SAFETY: `kill` is the C library's signal call; a negative pid names
    // the process group this module created for the child, and the call
    // takes no pointers.
    unsafe {
        kill(-(pgid as i32), SIGKILL);
    }
}

/// Waits (briefly) until no process of the killed group is left, so no
/// grandchild outlives the phase that started it.
fn wait_group_gone(pgid: u32) {
    let until = Instant::now() + Duration::from_secs(2);
    while Instant::now() < until {
        // SAFETY: signal 0 only checks that the group exists; no pointers.
        if unsafe { kill(-(pgid as i32), 0) } != 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Peak resident set of this process, in KiB (`VmHWM`).
pub fn self_peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of the largest terminated and reaped child of this
/// process, in KiB (`ru_maxrss` of `RUSAGE_CHILDREN`).
pub fn largest_child_peak_rss_kb() -> u64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s then fourteen longs,
    // `ru_maxrss` first — 18 words, `ru_maxrss` at index 4.
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a live, writable buffer of exactly the size of
    // `struct rusage` on 64-bit Linux.
    let status = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if status == 0 {
        usage[4].max(0) as u64
    } else {
        0
    }
}
