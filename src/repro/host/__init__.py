"""Host model: CPUs, memory, kernel, and node assembly."""

from .cpu import Cpu, CpuAccounting
from .kernel import DriverClient, Kernel
from .memory import MemoryFault, VirtualMemory
from .node import Node
from .params import myri10g_params, tigon3_params

__all__ = [
    "Cpu",
    "CpuAccounting",
    "Kernel",
    "DriverClient",
    "VirtualMemory",
    "MemoryFault",
    "Node",
    "tigon3_params",
    "myri10g_params",
]
