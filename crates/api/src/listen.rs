//! Connection plumbing shared by `gcco-serve` and `gcco-router`: a
//! blocking accept loop, one reader/writer thread pair per connection,
//! and a [`Gate`] whose [`Gate::stop`] wakes every thread blocked on a
//! socket. Nothing here re-checks a flag on a timer.
//!
//! [`Gate::stop`] is the one place a server's transport stop flag flips,
//! and it wakes each blocked party directly:
//!
//! * the accept loop, blocked in `accept()`, by a self-connect to the
//!   bound address (the matching loopback address when bound to
//!   `0.0.0.0` or `::`). The loop re-checks the flag after every accept
//!   and exits once it is set;
//! * each connection reader, blocked in a read, by
//!   `shutdown(Shutdown::Read)` on a clone of its stream kept in the
//!   gate's registry, so the read returns EOF. Each connection removes its
//!   own entry when it ends, and one that registers after the stop is
//!   turned away, so no reader can block past it;
//! * [`Gate::wait`] / [`Gate::wait_timeout`] callers, through a condvar.
//!
//! Only the read half is shut. A connection's writer keeps delivering
//! until every reply sender — its reader's and whatever work the reader
//! handed off — is gone, so the servers' drain contracts are unchanged.

use crate::error::GccoError;
use crate::json::encode_error_line;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Pause after a failed `accept` (e.g. `EMFILE`) so a persistent error
/// does not spin a core. Only the error path sleeps.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// The longest line, in bytes without its `\n`, that [`serve_lines`]
/// reads. A longer line gets one id-less `parse_error` reply and then the
/// connection closes, so a peer that never sends `\n` cannot grow a
/// buffer without bound. The largest line any in-repo client sends is
/// `baseline_suite --remote`'s full-flow batch of 14 envelopes, about
/// 4 KB (the largest test line, the 20 KB nesting-depth probe, is not a
/// real client); 1 MiB fits a batch of some 2,800 `ber_point` envelopes.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Live connection streams, keyed by a per-gate id.
#[derive(Default)]
struct Live {
    next_id: u64,
    streams: HashMap<u64, TcpStream>,
}

/// A server's stop flag plus everything needed to wake the threads that
/// block on it. See the module docs.
pub struct Gate {
    wake_addr: SocketAddr,
    stopped: AtomicBool,
    /// Also the mutex `stop_signal` waits on: the flag is only set with
    /// it held, so a waiter that saw the flag clear cannot miss the wake.
    live: Mutex<Live>,
    stop_signal: Condvar,
}

impl Gate {
    /// A gate for a listener bound at `local_addr`.
    pub fn new(local_addr: SocketAddr) -> Gate {
        let mut wake_addr = local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(if wake_addr.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        Gate {
            wake_addr,
            stopped: AtomicBool::new(false),
            live: Mutex::new(Live::default()),
            stop_signal: Condvar::new(),
        }
    }

    /// The registry. Every update is a single insert or remove, so the map
    /// is valid even if a holder panicked, and a poisoned lock is taken
    /// as is: `stop` runs from `Drop` and must not panic.
    fn live(&self) -> MutexGuard<'_, Live> {
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// True once [`Gate::stop`] has run.
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Sets the flag and wakes the accept loop, every live connection
    /// reader and every waiter. Idempotent: only the first call wakes.
    pub fn stop(&self) {
        let live = self.live();
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        for stream in live.streams.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        drop(live);
        self.stop_signal.notify_all();
        // A refused connect means the listener is already gone.
        let _ = TcpStream::connect(self.wake_addr);
    }

    /// Blocks until [`Gate::stop`] runs.
    pub fn wait(&self) {
        let _live = self
            .stop_signal
            .wait_while(self.live(), |_| !self.is_stopped())
            .unwrap_or_else(PoisonError::into_inner);
    }

    /// Blocks for at most `timeout`, returning early (with `true`) once
    /// [`Gate::stop`] runs.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let _live = self
            .stop_signal
            .wait_timeout_while(self.live(), timeout, |_| !self.is_stopped())
            .unwrap_or_else(PoisonError::into_inner);
        self.is_stopped()
    }

    /// Keeps a clone of `stream` for [`Gate::stop`] to shut. `None` once
    /// stopped (checked under the registry lock, so no stream can slip in
    /// after the stop has shut the others) or when the clone fails.
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let mut live = self.live();
        if self.is_stopped() {
            return None;
        }
        let id = live.next_id;
        live.next_id += 1;
        live.streams.insert(id, clone);
        Some(id)
    }

    fn unregister(&self, id: u64) {
        self.live().streams.remove(&id);
    }
}

/// Accepts connections until `gate` stops, running `handle` on its own
/// thread (named `name`) for each one, then joins every connection thread.
pub fn accept_loop<F>(listener: TcpListener, gate: &Gate, name: &str, handle: F)
where
    F: Fn(TcpStream) + Clone + Send + 'static,
{
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        // The stop's self-connect lands here; so may a client racing it,
        // which is closed unserved, as any client after the stop would be.
        if gate.is_stopped() {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                let handle = handle.clone();
                if let Ok(thread) = std::thread::Builder::new()
                    .name(name.to_string())
                    .spawn(move || handle(stream))
                {
                    connections.push(thread);
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
        connections.retain(|c| !c.is_finished());
    }
    for c in connections {
        let _ = c.join();
    }
}

/// Serves one line-delimited connection: the calling thread reads lines
/// and hands each non-empty one to `on_line` with the connection's reply
/// sender, while a writer thread (named `writer_name`) writes every reply
/// as one line. Reads block with no timeout until EOF, an error, a line
/// longer than [`MAX_LINE_BYTES`] or [`Gate::stop`]. Returns once the
/// writer has delivered every reply, which is after the last sender
/// `on_line` cloned is dropped.
pub fn serve_lines(
    stream: TcpStream,
    gate: &Gate,
    writer_name: &str,
    mut on_line: impl FnMut(&str, &mpsc::Sender<String>),
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let Some(id) = gate.register(&stream) else {
        return;
    };
    let (reply_tx, reply_rx) = mpsc::channel::<String>();
    let writer = std::thread::Builder::new()
        .name(writer_name.to_string())
        .spawn(move || {
            let mut out = write_half;
            while let Ok(line) = reply_rx.recv() {
                if out
                    .write_all(line.as_bytes())
                    .and_then(|()| out.write_all(b"\n"))
                    .and_then(|()| out.flush())
                    .is_err()
                {
                    return;
                }
            }
        });
    let mut reader = BufReader::new(stream);
    let mut acc: Vec<u8> = Vec::new();
    // One byte past the cap: a full read that still lacks the `\n` is a
    // line longer than the cap.
    let limit = MAX_LINE_BYTES as u64 + 1;
    while !gate.is_stopped() {
        match reader.by_ref().take(limit).read_until(b'\n', &mut acc) {
            Ok(0) | Err(_) => break,
            Ok(n) if n as u64 == limit && acc.last() != Some(&b'\n') => {
                let _ = reply_tx.send(encode_error_line(&GccoError::Parse(format!(
                    "line longer than {MAX_LINE_BYTES} bytes"
                ))));
                break;
            }
            Ok(_) => {
                let at_eof = acc.last() != Some(&b'\n');
                let line = String::from_utf8_lossy(&acc).trim().to_string();
                acc.clear();
                if !line.is_empty() {
                    on_line(&line, &reply_tx);
                }
                if at_eof {
                    break;
                }
            }
        }
    }
    gate.unregister(id);
    drop(reply_tx);
    if let Ok(writer) = writer {
        let _ = writer.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unspecified_bind_addresses_wake_through_loopback() {
        let v4 = Gate::new("0.0.0.0:4250".parse().unwrap());
        assert_eq!(v4.wake_addr, "127.0.0.1:4250".parse().unwrap());
        let v6 = Gate::new("[::]:4250".parse().unwrap());
        assert_eq!(v6.wake_addr, "[::1]:4250".parse().unwrap());
        let bound = Gate::new("10.1.2.3:4250".parse().unwrap());
        assert_eq!(bound.wake_addr, "10.1.2.3:4250".parse().unwrap());
    }

    #[test]
    fn stop_wakes_waiters_and_turns_late_connections_away() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let gate = std::sync::Arc::new(Gate::new(listener.local_addr().unwrap()));
        assert!(!gate.wait_timeout(Duration::from_millis(1)));
        let waiter = {
            let gate = std::sync::Arc::clone(&gate);
            std::thread::spawn(move || gate.wait())
        };
        gate.stop();
        gate.stop();
        waiter.join().unwrap();
        assert!(gate.wait_timeout(Duration::from_secs(60)));
        let late = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        assert_eq!(gate.register(&late), None);
    }
}
