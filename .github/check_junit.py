"""Check a pytest run against the tests it is expected to fail.

    python .github/check_junit.py REPORT.xml EXIT_CODE [TEST_ID ...]

REPORT.xml is the run's ``--junitxml`` report and EXIT_CODE its pytest exit
code; each TEST_ID is ``classname::name`` as the report writes it.  Exits 0
when exactly the named tests failed or errored and pytest exited 1 (0 when
none is named); otherwise exits 1 with the difference.
"""

import sys
import xml.etree.ElementTree as ET

report, code, *ids = sys.argv[1:]
code, expected, want = int(code), set(ids), 1 if ids else 0
ran, failed = 0, set()
for case in ET.parse(report).iter("testcase"):
    ran += 1
    if case.find("failure") is not None or case.find("error") is not None:
        failed.add(f"{case.get('classname')}::{case.get('name')}")
print(f"pytest exit code {code}; {ran} tests ran; failed: {sorted(failed)}")
if code != want or failed != expected:
    sys.exit(f"expected exit code {want} and exactly {sorted(expected)} failed")
