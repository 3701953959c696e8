#!/usr/bin/env python3
"""Fold a tools/sampler profile into self and inclusive shares.

    python3 tools/sampler/fold.py BINARY PROFILE [--top N]

BINARY is the executable that was sampled, PROFILE the $SAMPLER_OUT file
(/proc/self/maps, then one line of return addresses per sample). Frames
inside BINARY are symbolised with `addr2line -f -C`. Time spent outside
it (libc, libstdc++, the sampler itself) is charged to the first caller
inside the binary: that function gets the sample's "self" share, and
every distinct in-binary function on the stack gets its "incl" share.
"""
import argparse
import collections
import os
import subprocess
import sys


def read_profile(path):
    maps, samples, in_samples = [], [], False
    with open(path) as f:
        for line in f:
            if line.startswith("--- samples"):
                in_samples = True
            elif in_samples:
                samples.append([int(a, 16) for a in line.split()
                                if a.startswith("0x")])
            else:
                parts = line.split()
                if len(parts) >= 6:
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    maps.append((lo, hi, int(parts[2], 16),
                                 " ".join(parts[5:])))
    return maps, samples


def module_of(maps, addr):
    for lo, hi, _, path in maps:
        if lo <= addr < hi:
            return path
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("binary")
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    binary = os.path.realpath(args.binary)
    maps, samples = read_profile(args.profile)
    with open(binary, "rb") as f:
        is_pie = f.read(18)[16] == 3  # e_type ET_DYN
    own = [m for m in maps if m[3] == binary]
    if not own:
        sys.exit(f"fold.py: {binary} is not mapped in {args.profile}")
    base = min(lo - off for lo, _, off, _ in own) if is_pie else 0

    # Per sample: the in-binary frames, innermost first, as link-time
    # addresses. The frame right after the signal trampoline is the
    # interrupted PC; every later one is a return address, so step back
    # one byte to land inside the call instruction.
    stacks = []
    for frames in samples:
        k = 0
        while k < len(frames) and "sampler" in (module_of(maps, frames[k]) or ""):
            k += 1
        k += 1  # the signal trampoline
        stack = []
        for i, addr in enumerate(frames[k:]):
            if module_of(maps, addr) == binary:
                stack.append(addr - base - (1 if i > 0 else 0))
        stacks.append(stack)

    addrs = sorted({a for s in stacks for a in s})
    out = subprocess.run(["addr2line", "-f", "-C", "-e", binary],
                         input="\n".join(hex(a) for a in addrs) + "\n",
                         capture_output=True, text=True, check=True).stdout
    names = dict(zip(addrs, out.splitlines()[0::2]))

    self_n, incl_n = collections.Counter(), collections.Counter()
    for stack in stacks:
        funcs = [names[a] for a in stack] or ["[outside binary]"]
        self_n[funcs[0]] += 1
        for fn in set(funcs):
            incl_n[fn] += 1

    total = max(len(stacks), 1)
    print(f"{len(stacks)} samples of {binary}")
    for title, counts in (("self", self_n), ("inclusive", incl_n)):
        print(f"\n{title:>9}  function")
        for fn, n in counts.most_common(args.top):
            print(f"{100.0 * n / total:8.2f}%  {fn}")


if __name__ == "__main__":
    main()
