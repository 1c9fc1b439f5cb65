"""The seed-to-input selection of the C++ program is deterministic: one
seed always lists the same instances and edit streams, and another seed
lists other streams (and, for handoff-flood, another instance). Builds the
program first, as perfbench/run.py does.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402


class Selection(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(run.build_dir())

    def listing(self, workload, seed):
        out = subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(seed),
             "--list-instances"],
            capture_output=True, text=True, check=True, timeout=120).stdout
        instances, _, streams = out.partition("stream 0:")
        return instances, streams

    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.listing(workload, 3),
                                 self.listing(workload, 3))

    def test_what_the_seed_picks(self):
        flood3, flood4 = (self.listing("handoff-flood", s) for s in (3, 4))
        self.assertNotEqual(flood3[0], flood4[0])
        # The flood family's load does not depend on the seed.
        self.assertEqual(flood3[0].split('"states"')[1],
                         flood4[0].split('"states"')[1])
        # Only edit-stream draws its edit streams from the seed.
        self.assertEqual(flood3[1], flood4[1])
        edit3, edit4 = (self.listing("edit-stream", s) for s in (3, 4))
        self.assertEqual(edit3[0], edit4[0])
        self.assertNotEqual(edit3[1], edit4[1])
        self.assertEqual(self.listing("dense-overlap", 3),
                         self.listing("dense-overlap", 4))


if __name__ == "__main__":
    unittest.main()
