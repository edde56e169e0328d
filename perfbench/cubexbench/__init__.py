"""Many-query benchmark of the cubex engine.

`bench` holds the run loop and the command line, `workloads` the four
seeded workloads, `checks` the answer checks that run outside the timed
window, and `spans` the wrappers of the traced run.
"""
