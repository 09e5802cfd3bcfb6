#!/usr/bin/env python3
"""CI smoke client for `satpg serve` on a Unix socket.

Sends the same request batch twice: the first pass may compute, the
second must be answered entirely from cache (hit or disk-hit) with the
same provenance manifest ids.  Also checks the stats verb, /healthz and
/metrics over HTTP, and finishes by sending the shutdown verb — the
caller then asserts the daemon process exits on its own.

Usage: serve_smoke.py SOCKET [A1_OUT] — with A1_OUT, the first-pass
response to request a1 (dk16 ji sr, hitec) is written there as JSON, so
the caller can check that a CLI run of the same pair reads its record.
"""

import json
import socket
import sys
import time

SOCK = sys.argv[1]
A1_OUT = sys.argv[2] if len(sys.argv) > 2 else None

# bench-source requests only: pure ASCII, and the circuits are the
# study pairs the store already knows how to cache
BATCH = [
    {"id": "a1", "verb": "atpg", "circuit": {"bench": "dk16"}},
    {"id": "a2", "verb": "atpg", "circuit": {"bench": "dk16", "retimed": True}},
    {"id": "r1", "verb": "reach", "circuit": {"bench": "dk16"}},
    {"id": "c1", "verb": "classify", "circuit": {"bench": "dk16"}},
    {"id": "l1", "verb": "lint", "circuit": {"bench": "dk16"}},
    {"id": "f1", "verb": "fsim", "circuit": {"bench": "dk16"},
     "config": {"vectors": 512}},
]
# lint and fsim deliberately bypass the result cache
CACHEABLE = {"a1", "a2", "r1", "c1"}


def fail(msg):
    print("serve smoke: FAIL:", msg)
    sys.exit(1)


def wait_for_socket(deadline=30.0):
    end = time.time() + deadline
    while time.time() < end:
        try:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.connect(SOCK)
            return s
        except OSError:
            time.sleep(0.2)
    fail("socket %s did not come up within %gs" % (SOCK, deadline))


def connect():
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(SOCK)
    return s


def rpc(f, req):
    f.write((json.dumps(req, ensure_ascii=False) + "\n").encode())
    f.flush()
    line = f.readline()
    if not line:
        fail("connection closed while waiting for a response to %r" % req)
    return json.loads(line)


def run_batch(f, label):
    out = {}
    for req in BATCH:
        r = rpc(f, req)
        if r.get("id") != req["id"]:
            fail("%s: response id %r for request %r" % (label, r.get("id"), req["id"]))
        if r.get("ok") is not True:
            fail("%s: request %s failed: %r" % (label, req["id"], r.get("error")))
        out[req["id"]] = r
    return out


def http_get(path):
    s = connect()
    s.sendall(("GET %s HTTP/1.1\r\nHost: satpg\r\n\r\n" % path).encode())
    data = b""
    while True:
        chunk = s.recv(65536)
        if not chunk:
            break
        data += chunk
    s.close()
    return data.decode()


sock = wait_for_socket()
f = sock.makefile("rwb")

stats = rpc(f, {"id": "s0", "verb": "stats"})
if stats.get("ok") is not True or "serve" not in stats:
    fail("stats verb did not answer: %r" % stats)

first = run_batch(f, "pass 1")
second = run_batch(f, "pass 2")
if A1_OUT:
    with open(A1_OUT, "w") as out:
        json.dump(first["a1"], out)

for rid in CACHEABLE:
    cache = second[rid].get("cache")
    if cache not in ("hit", "disk-hit"):
        fail("pass 2: request %s not served from cache (cache=%r)" % (rid, cache))
    if second[rid].get("manifest") != first[rid].get("manifest"):
        fail("request %s: manifest id changed between passes" % rid)

health = http_get("/healthz")
if "200" not in health.splitlines()[0] or "ok" not in health:
    fail("/healthz did not answer ok: %r" % health[:200])

metrics = http_get("/metrics")
body = metrics.split("\r\n\r\n", 1)[-1]
if "200" not in metrics.splitlines()[0]:
    fail("/metrics did not answer 200: %r" % metrics[:200])
if "# TYPE satpg_" not in body or "satpg_serve_requests_total" not in body:
    fail("/metrics body is not the expected Prometheus text: %r" % body[:200])
for line in body.splitlines():
    if line and not (line.startswith("#") or line.startswith("satpg_")):
        fail("/metrics line outside the satpg_ namespace: %r" % line)

bye = rpc(f, {"id": "bye", "verb": "shutdown"})
if bye.get("ok") is not True:
    fail("shutdown verb rejected: %r" % bye)

print("serve smoke: all checks passed "
      "(batch of %d twice, second pass all cache hits)" % len(BATCH))
