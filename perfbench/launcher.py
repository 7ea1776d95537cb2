"""Small process that starts the benchmark's children and times them.

Linux records the pre-exec memory of a spawning process in the new
program's peak RSS (``ru_maxrss``), so children spawned by the benchmark
itself, which holds numpy, scipy and large outputs, would all report at
least the benchmark's own peak.  This launcher imports almost nothing, so
``os.wait4`` gives each child's own peak RSS.

Protocol: one JSON request per line on stdin, ``{"cmd": [...], "out": path}``.
The launcher runs the command with stdout and stderr on pipes that it
drains, writes them to ``path`` and ``path + ".err"``, and answers one JSON
line ``{"t0", "t1", "code", "maxrss_kb"}`` on stdout, where t0 and t1 are
:func:`time.perf_counter` readings just before exec and just after exit.
A child still running after ``TIMEOUT_S`` is killed.  The launcher exits
when stdin closes.
"""

import json
import os
import selectors
import signal
import subprocess
import sys
import time

TIMEOUT_S = 60.0


def spawn(cmd: list[str]) -> tuple[dict, bytes, bytes]:
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    killed = False
    # os.kill, not proc.kill: Popen would reap the child before wait4 reads its rusage
    try:
        with selectors.DefaultSelector() as sel:
            for f in chunks:
                sel.register(f, selectors.EVENT_READ)
            while sel.get_map():
                if time.perf_counter() - t0 > TIMEOUT_S and not killed:
                    os.kill(proc.pid, signal.SIGKILL)
                    killed = True
                for key, _ in sel.select(timeout=1.0):
                    data = os.read(key.fd, 1 << 20)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    t1 = time.perf_counter()
    result = {"t0": t0, "t1": t1, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}
    return result, b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        result, out, err = spawn(request["cmd"])
        with open(request["out"], "wb") as fh:
            fh.write(out)
        with open(request["out"] + ".err", "wb") as fh:
            fh.write(err)
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    serve()
