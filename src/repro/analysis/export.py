"""Export experiment data for external tooling.

Writes the series behind each figure as CSV and the summary numbers as
JSON, so the figures can be re-plotted with matplotlib/gnuplot/R
outside this repository.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

from repro.cluster.runner import ExperimentResult
from repro.errors import AnalysisError
from repro.metrics.timeseries import TimeSeries

PathLike = Union[str, Path]


def series_to_csv(series: TimeSeries, path: PathLike) -> None:
    """Write one series as ``time,value`` rows."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", series.name or "value"])
        for time, value in series:
            writer.writerow([repr(time), repr(value)])


def series_from_csv(path: PathLike) -> TimeSeries:
    """Read a series written by :func:`series_to_csv`."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header or len(header) != 2:
            raise AnalysisError("not a series CSV: " + str(path))
        series = TimeSeries(header[1])
        for row in reader:
            series.append(float(row[0]), float(row[1]))
    return series


def export_result(result: ExperimentResult, directory: PathLike) -> Path:
    """Dump everything a figure needs into ``directory``.

    Writes per-server queue CSVs, per-host CPU/iowait CSVs, the
    point-in-time RT and VLRT-window CSVs, dirty-page CSVs when
    sampled, and a ``summary.json`` with the Table-I numbers.  Returns
    the directory path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    for name, series in result.queue_series.items():
        series_to_csv(series, directory / "queue_{}.csv".format(name))
    for name, series in result.dirty_series.items():
        series_to_csv(series, directory / "dirty_{}.csv".format(name))
    for server in result.system.servers:
        series_to_csv(result.cpu_utilization(server.name),
                      directory / "cpu_{}.csv".format(server.name))
        series_to_csv(result.iowait(server.name),
                      directory / "iowait_{}.csv".format(server.name))
    series_to_csv(result.point_in_time_rt(), directory / "rt.csv")
    series_to_csv(result.vlrt_windows(), directory / "vlrt.csv")

    summary = {
        "bundle": result.config.bundle_key,
        "duration": result.duration,
        "seed": result.config.seed,
        "table1_row": result.metrics.table1_row(),
        "dropped_packets": result.metrics.drops,
        "average_cpu": result.average_cpu(),
        "millibottlenecks": [
            {
                "host": record.host,
                "started_at": record.started_at,
                "ended_at": record.ended_at,
                "bytes_flushed": record.bytes_flushed,
            }
            for record in result.system.millibottleneck_records()
        ],
    }
    with open(directory / "summary.json", "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    return directory
