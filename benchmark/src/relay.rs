//! A counting loopback relay: it accepts TCP connections, dials the
//! upstream address for each, copies bytes both ways unchanged, and
//! counts every byte it forwards. Put in front of the coordinator, it
//! measures the frames a link really carries.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub struct Relay {
    addr: String,
    bytes: Arc<AtomicU64>,
}

impl Relay {
    /// Listens on a free loopback port and relays to `upstream`. The
    /// relay's threads end with their connections, or with the process.
    pub fn start(upstream: String) -> std::io::Result<Relay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let bytes = Arc::new(AtomicU64::new(0));
        let count = Arc::clone(&bytes);
        std::thread::spawn(move || {
            for down in listener.incoming() {
                let Ok(down) = down else { continue };
                let Ok(up) = TcpStream::connect(&upstream) else {
                    continue;
                };
                // Both ends already disable Nagle; so must the relay, or
                // it would hold small frames back.
                let _ = (down.set_nodelay(true), up.set_nodelay(true));
                let (Ok(down2), Ok(up2)) = (down.try_clone(), up.try_clone()) else {
                    continue;
                };
                pipe(down, up, Arc::clone(&count));
                pipe(up2, down2, Arc::clone(&count));
            }
        });
        Ok(Relay { addr, bytes })
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Bytes forwarded so far, both directions, every connection.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// Copies `from` to `to` on a thread of its own, counting the bytes,
/// until either side closes.
fn pipe(mut from: TcpStream, mut to: TcpStream, count: Arc<AtomicU64>) {
    std::thread::spawn(move || {
        let mut buf = vec![0u8; 64 * 1024];
        while let Ok(n @ 1..) = from.read(&mut buf) {
            count.fetch_add(n as u64, Ordering::Relaxed);
            if to.write_all(&buf[..n]).is_err() {
                break;
            }
        }
        let _ = to.shutdown(Shutdown::Write);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relay_forwards_and_counts_both_directions() {
        let server = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = server.local_addr().unwrap().to_string();
        let echo = std::thread::spawn(move || {
            let (mut conn, _) = server.accept().unwrap();
            let mut buf = [0u8; 5];
            conn.read_exact(&mut buf).unwrap();
            conn.write_all(b"pong!!!").unwrap();
        });
        let relay = Relay::start(upstream).unwrap();
        let mut client = TcpStream::connect(relay.addr()).unwrap();
        client.write_all(b"ping!").unwrap();
        let mut reply = [0u8; 7];
        client.read_exact(&mut reply).unwrap();
        echo.join().unwrap();
        assert_eq!(&reply, b"pong!!!");
        // The copy threads count on their own schedule; give them time.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while relay.bytes() < 12 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(relay.bytes(), 12);
    }
}
