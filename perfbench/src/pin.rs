//! CPU placement of the serving threads.
//!
//! Client `c` talks mostly to shard `c`, so the two share CPU `c`: a
//! request's hand-off is then a wake-up on the same CPU. Left to the
//! scheduler, a client and its shard land on one CPU in some runs and
//! on two in others. A cross-CPU wake-up on a virtual machine costs
//! several times a same-CPU one, so that choice alone moved throughput
//! by up to 2× between runs of one seed. Set-up threads, the replication
//! shipper and everything else stay where the scheduler puts them.

use std::io;

/// Words of a `cpu_set_t` (1024 CPUs).
const SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, in increasing order.
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u64; SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..SET_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// The CPU of client or shard `slot`, when there is one CPU per slot.
pub fn cpu_for(slot: usize, slots: usize) -> Option<usize> {
    let cpus = allowed();
    (slots > 1 && cpus.len() >= slots).then(|| cpus[slot])
}

/// Pin thread `tid` (0: the calling thread) to `cpu`.
pub fn pin(tid: i32, cpu: usize) -> io::Result<()> {
    let mut mask = [0u64; SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Pin every live shard worker `gis-shard-<i>` of `shards` to the CPU
/// of slot `i`. Returns how many were pinned.
pub fn shards(shards: usize) -> io::Result<usize> {
    let mut pinned = 0;
    for entry in std::fs::read_dir("/proc/self/task")? {
        let dir = entry?.path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue; // the thread has exited
        };
        let Some(i) = comm
            .trim()
            .strip_prefix("gis-shard-")
            .and_then(|i| i.parse::<usize>().ok())
        else {
            continue;
        };
        let tid = dir
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.parse::<i32>().ok());
        if let (Some(tid), Some(cpu)) = (tid, cpu_for(i % shards.max(1), shards)) {
            pin(tid, cpu)?;
            pinned += 1;
        }
    }
    Ok(pinned)
}
