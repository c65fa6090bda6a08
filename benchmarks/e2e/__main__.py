import sys

from benchmarks.e2e.suite import main

# A spawned workload process imports this module again under another name.
if __name__ == "__main__":
    sys.exit(main())
