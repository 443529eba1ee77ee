"""Straightforward reference implementations the fast paths are tested against.

Each oracle is the plain form of a kernel in ``repro``: it trades speed for
obviousness, and the differential tests assert the kernel's output is
bit-identical to it.  Nothing in ``src/`` imports these modules.
"""
