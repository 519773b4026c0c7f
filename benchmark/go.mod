module gapplydb/benchmark

go 1.22

require gapplydb v0.0.0

replace gapplydb => ../
