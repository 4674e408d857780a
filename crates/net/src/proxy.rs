//! Wire-level fault injection: a TCP shim between client and server.
//!
//! [`FaultProxy`] listens on an ephemeral loopback port and forwards each
//! accepted connection to the real server. The client→server direction is
//! **frame-structured**: the proxy reassembles each `[len|crc|seq|payload]`
//! frame and rolls the seeded [`NetFaultSchedule`] once per frame —
//! forwarding it, duplicating it, flipping one bit inside it, truncating
//! it mid-write, stalling it, or resetting the connection outright. The
//! server→client direction is a transparent byte pipe, so ACKs always
//! describe what the server truly ingested.
//!
//! One schedule spans the proxy's whole lifetime: decisions follow the
//! **global** frame index across every reconnection, which is what makes a
//! chaos drill reproducible per seed even though the number of
//! connections it produces is an outcome, not an input.
//!
//! Bit flips target the `seq`+payload region (bytes 8..) and leave the
//! `len` field alone: the receiver then sees exactly one corrupt frame and
//! tears the connection down immediately, instead of mis-framing the rest
//! of the stream and stalling until its read budget expires.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use datacron_stream::{NetFault, NetFaultPlan, NetFaultSchedule, NetFaultStats};

use crate::wire::FrameReader;

/// A running fault-injection proxy. Point the client at
/// [`local_addr`](Self::local_addr); the proxy forwards to `upstream`.
pub struct FaultProxy {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    schedule: Arc<Mutex<NetFaultSchedule>>,
}

impl FaultProxy {
    /// Start proxying loopback connections to `upstream` under `plan`.
    pub fn start(upstream: SocketAddr, plan: NetFaultPlan) -> io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let stop = Arc::new(AtomicBool::new(false));
        let schedule = Arc::new(Mutex::new(NetFaultSchedule::new(plan)));
        let threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let stop = Arc::clone(&stop);
            let schedule = Arc::clone(&schedule);
            let threads = Arc::clone(&threads);
            thread::Builder::new().name("proxy-accept".into()).spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((client, _)) => {
                            let stop = Arc::clone(&stop);
                            let schedule = Arc::clone(&schedule);
                            let threads2 = Arc::clone(&threads);
                            let spawned = thread::Builder::new()
                                .name("proxy-conn".into())
                                .spawn(move || proxy_conn(client, upstream, stop, schedule, threads2));
                            if let Ok(h) = spawned {
                                threads.lock().unwrap().push(h);
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => thread::sleep(Duration::from_millis(2)),
                    }
                }
            })?
        };

        Ok(FaultProxy { local_addr, stop, accept: Some(accept), threads, schedule })
    }

    /// Address for the client to dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Fault decisions taken so far (global across connections).
    pub fn stats(&self) -> NetFaultStats {
        self.schedule.lock().unwrap().stats()
    }

    /// Stop accepting and join every pump thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let drained: Vec<_> = self.threads.lock().unwrap().drain(..).collect();
        for h in drained {
            let _ = h.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Kill both halves of the bridged connection.
fn kill(client: &TcpStream, server: &TcpStream) {
    let _ = client.shutdown(Shutdown::Both);
    let _ = server.shutdown(Shutdown::Both);
}

fn proxy_conn(
    client: TcpStream,
    upstream: SocketAddr,
    stop: Arc<AtomicBool>,
    schedule: Arc<Mutex<NetFaultSchedule>>,
    threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let server = match TcpStream::connect_timeout(&upstream, Duration::from_secs(2)) {
        Ok(s) => s,
        Err(_) => {
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
    };
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    let _ = client.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = server.set_read_timeout(Some(Duration::from_millis(50)));

    // Server → client: transparent byte pipe.
    let down = {
        let server = match server.try_clone() {
            Ok(s) => s,
            Err(_) => {
                kill(&client, &server);
                return;
            }
        };
        let client = match client.try_clone() {
            Ok(c) => c,
            Err(_) => {
                kill(&client, &server);
                return;
            }
        };
        let stop = Arc::clone(&stop);
        thread::Builder::new().name("proxy-down".into()).spawn(move || {
            let mut chunk = [0u8; 4096];
            let mut from = &server;
            loop {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                match from.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => {
                        if (&client).write_all(&chunk[..n]).is_err() {
                            break;
                        }
                    }
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut
                            || e.kind() == io::ErrorKind::Interrupted =>
                    {
                        continue;
                    }
                    Err(_) => break,
                }
            }
            kill(&client, &server);
        })
    };
    if let Ok(h) = down {
        threads.lock().unwrap().push(h);
    }

    // Client → server: frame-at-a-time with fault decisions.
    let mut reader = FrameReader::default();
    let mut to = &server;
    while !stop.load(Ordering::SeqCst) {
        let frame = match reader.next_frame(&mut &client) {
            Ok(Some(frame)) => frame,
            Ok(None) => continue, // read-timeout tick at a frame boundary
            // The client never emits garbled frames; if one appears, or the
            // stream ended or stalled mid-frame, drop the link.
            Err(_) => break,
        };
        let fault = schedule.lock().unwrap().next_fault();
        let ok = match fault {
            NetFault::Pass => to.write_all(frame).is_ok(),
            NetFault::Duplicate => to.write_all(frame).is_ok() && to.write_all(frame).is_ok(),
            NetFault::BitFlip { salt } => {
                let mut bad = frame.to_vec();
                let region = bad.len() - 8;
                let idx = 8 + (salt as usize % region);
                let bit = (salt >> 32) % 8;
                bad[idx] ^= 1 << bit;
                to.write_all(&bad).is_ok()
            }
            NetFault::Truncate { salt } => {
                let keep = 1 + (salt as usize % (frame.len() - 1));
                let _ = to.write_all(&frame[..keep]);
                false
            }
            NetFault::Reset => false,
            NetFault::Stall { ms } => {
                thread::sleep(Duration::from_millis(ms));
                to.write_all(frame).is_ok()
            }
        };
        if !ok {
            break;
        }
    }
    kill(&client, &server);
}
