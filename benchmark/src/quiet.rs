//! Two scheduler settings that keep the sandbox's own noise out of the
//! serve measurements. Both are plain libc calls; `std` links libc on Linux
//! but exposes neither.
//!
//! * Idle-class spinners. On this two-vCPU sandbox a request that wakes a
//!   thread on an idle CPU pays the hypervisor's idle-exit latency: service
//!   time was 0.044 ms or 0.105 ms for a whole run, depending on where the
//!   scheduler had placed the worker, and closed-loop capacity swung with
//!   it. One `SCHED_IDLE` thread per CPU keeps the CPUs out of the idle
//!   state; the idle class runs only when nothing else is runnable, so it
//!   takes no time from the daemon (a normal-priority spinner would).
//! * Timer slack. A sleeping generator thread is woken up to 50 us late by
//!   default, which was two thirds of the measured median latency. The
//!   generator threads ask for 1 ns slack; how late they still run is
//!   reported as `pmstackd.loadgen.late_*`.

use std::ffi::{c_int, c_ulong};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

const SCHED_IDLE: c_int = 5;
const PR_SET_TIMERSLACK: c_int = 29;

#[repr(C)]
struct SchedParam {
    sched_priority: c_int,
}

extern "C" {
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

/// Ask for 1 ns timer slack on the calling thread.
pub fn precise_sleeps() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and changes only
    // the calling thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

/// One idle-class busy thread per CPU, until dropped.
pub struct IdleSpinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl IdleSpinners {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: pid 0 is the calling thread; `param` is a
                    // valid `struct sched_param` that outlives the call.
                    let idle_class = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
                    // Without the idle class the thread would compete with
                    // the daemon for a core, so it must not spin.
                    while idle_class && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Self { stop, threads }
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
