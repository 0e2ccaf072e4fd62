"""The exit codes of the command line and the two errors it maps to them.

This module imports nothing, so `analyse report` can name them without
loading the simulator (and numpy) that raises them.
"""

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SIMULATION = 3
EXIT_IO = 4


class ScenarioError(Exception):
    pass


class RunError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code
