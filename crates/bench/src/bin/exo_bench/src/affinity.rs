//! Confines the process to one CPU, as `taskset -c N` would.
//!
//! `serve_small` runs this way. Its jobs are a few microseconds of work
//! handed between threads, and on a virtual machine a hand-off to a thread
//! on **another** vCPU goes through the host (an IPI, and a wake-up from
//! `HLT` when that vCPU idles): 35-50 us here, against ~6 us when the two
//! threads share a CPU. Which of the two a run gets is up to the guest
//! scheduler and changes from run to run, so unconfined the workload reads
//! the hypervisor, 3x slower and bimodal. On one CPU it reads what it was
//! chosen to read: the program's own per-job overhead.

/// Restricts the calling thread, and every thread it later starts, to the
/// first CPU it is allowed on. Call before any thread exists. Returns the
/// CPU, or `None` where the platform has no such call or the kernel refuses.
pub fn confine_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        // glibc's `cpu_set_t`: 1024 bits.
        let mut allowed = [0u64; 16];
        // SAFETY: the kernel writes at most `cpusetsize` bytes through the
        // pointer, and `allowed` is exactly that large; pid 0 is this thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = allowed
            .iter()
            .enumerate()
            .find_map(|(word, bits)| (*bits != 0).then(|| word * 64 + bits.trailing_zeros() as usize))?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: the kernel reads `cpusetsize` bytes through the pointer,
        // and `one` is exactly that large; only this thread's mask changes.
        (unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}
