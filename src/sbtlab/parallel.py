"""Empty: sbtlab starts no threads.

Kept only because the benchmark harness imports this module to resolve the
target of one of its trace layers; delete it when that layer goes.
"""
