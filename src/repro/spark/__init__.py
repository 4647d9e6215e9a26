"""PySpark engines: HyperCube-partitioned CROWN and the micro-batch baselines."""
