//! Which CPUs the driver thread and the product's threads may run on.
//!
//! Left to the kernel, a driver that sleeps while it waits and the worker
//! it wakes are often stacked on one CPU (wake-affine placement) for
//! minutes at a time, with the other CPU idle: `steady_sharded` then runs
//! at 0.85M records/s instead of 1.10M, and which of the two a run gets is
//! chance. So every pass that has more than one busy thread pins them: the
//! driver to the first CPU the process is allowed, everything the product
//! spawns to the others. Threads inherit the mask of the thread that
//! creates them, so the mask is narrowed before the layer (or server) is
//! built and the driver moves to its own CPU afterwards.
//!
//! Linux only; elsewhere, and when the process is allowed a single CPU,
//! nothing is pinned.

/// Bits of a `cpu_set_t`: 1,024 CPUs.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
mod sys {
    use super::MASK_WORDS;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<[u64; MASK_WORDS]> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed, and pid 0 names the calling thread; the call writes at
        // most that many bytes and keeps no pointer.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &[u64; MASK_WORDS]) -> bool {
        // SAFETY: `mask` is a live buffer of exactly the size passed, only
        // read during the call; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::MASK_WORDS;

    pub fn get() -> Option<[u64; MASK_WORDS]> {
        None
    }

    pub fn set(_mask: &[u64; MASK_WORDS]) -> bool {
        false
    }
}

fn mask_of(cpus: &[usize]) -> [u64; MASK_WORDS] {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    mask
}

fn cpus_of(mask: &[u64; MASK_WORDS]) -> Vec<usize> {
    (0..MASK_WORDS * 64).filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// The split of the process's CPUs between the driver and the product's
/// threads, for the length of one pass; dropping it gives the calling
/// thread its original mask back.
pub struct Split {
    original: Option<[u64; MASK_WORDS]>,
    driver: [u64; MASK_WORDS],
}

impl Split {
    /// Narrows the calling thread to the CPUs meant for the product's
    /// threads. Build the layer next, then call [`driver`](Self::driver).
    pub fn for_product_threads() -> Self {
        let original = sys::get().filter(|mask| cpus_of(mask).len() >= 2);
        let mut split = Self { original, driver: [0; MASK_WORDS] };
        if let Some(mask) = &split.original {
            let cpus = cpus_of(mask);
            split.driver = mask_of(&cpus[..1]);
            sys::set(&mask_of(&cpus[1..]));
        }
        split
    }

    /// Moves the calling thread to the driver's CPU.
    pub fn driver(&self) {
        if self.original.is_some() {
            sys::set(&self.driver);
        }
    }
}

impl Drop for Split {
    fn drop(&mut self) {
        if let Some(mask) = &self.original {
            sys::set(mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_and_cpu_lists_convert_both_ways() {
        let cpus = vec![0, 1, 63, 64, 700];
        assert_eq!(cpus_of(&mask_of(&cpus)), cpus);
        assert!(cpus_of(&mask_of(&[5000])).is_empty());
    }

    #[test]
    fn a_split_pins_the_thread_and_gives_the_mask_back() {
        // On its own thread: the mask is per thread, and other tests run beside this one.
        std::thread::spawn(|| {
            let Some(before) = sys::get() else { return };
            {
                let split = Split::for_product_threads();
                split.driver();
                let during = sys::get().expect("readable a moment ago");
                if cpus_of(&before).len() >= 2 {
                    assert_eq!(cpus_of(&during), cpus_of(&before)[..1]);
                } else {
                    assert_eq!(during, before);
                }
            }
            assert_eq!(sys::get(), Some(before));
        })
        .join()
        .expect("no assertion failed");
    }
}
