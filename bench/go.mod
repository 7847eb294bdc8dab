module skadi/bench

go 1.22

require skadi v0.0.0

replace skadi => ../
